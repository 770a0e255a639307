//! `repo.src_loc`: the repository's size, so a simplicity change has a
//! number. Counts non-blank, non-comment lines of the `.rs` files under
//! `crates/*/src` and `src/`, outside `#[cfg(test)]` modules.

use std::path::Path;

/// Lines of code in one source text.
pub fn count(text: &str) -> u64 {
    let mut loc = 0;
    let mut in_block_comment = false;
    // Brace depth inside a `#[cfg(test)] mod`; the module ends when the
    // depth returns to zero. Braces are counted on code lines as written,
    // which is exact for this repository's rustfmt-formatted sources.
    let mut test_depth: Option<i64> = None;
    let mut cfg_test_pending = false;
    for line in text.lines() {
        let line = line.trim();
        if in_block_comment {
            in_block_comment = !line.contains("*/");
            continue;
        }
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if line.starts_with("/*") {
            in_block_comment = !line.contains("*/");
            continue;
        }
        if let Some(depth) = test_depth.as_mut() {
            *depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            if *depth <= 0 {
                test_depth = None;
            }
            continue;
        }
        if line == "#[cfg(test)]" {
            cfg_test_pending = true;
            continue;
        }
        if cfg_test_pending {
            if line.starts_with("#[") {
                continue;
            }
            cfg_test_pending = false;
            if line.starts_with("mod ") || line.starts_with("pub mod ") {
                let depth = line.matches('{').count() as i64 - line.matches('}').count() as i64;
                test_depth = (depth > 0).then_some(depth);
                continue;
            }
            // A `#[cfg(test)]` on some other item: the attribute line was
            // code after all.
            loc += 1;
        }
        loc += 1;
    }
    loc
}

fn count_dir(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                count_dir(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&path).map_or(0, |t| count(&t))
            } else {
                0
            }
        })
        .sum()
}

/// Lines of code under `root/crates/*/src` and `root/src`.
pub fn repo_src_loc(root: &Path) -> u64 {
    let crates = std::fs::read_dir(root.join("crates"))
        .map(|entries| {
            entries
                .flatten()
                .map(|e| count_dir(&e.path().join("src")))
                .sum::<u64>()
        })
        .unwrap_or(0);
    crates + count_dir(&root.join("src"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_and_skips_comments_blanks_and_test_modules() {
        let text = "\
//! Module doc.

use std::fmt;

/// Doc comment.
pub fn f() -> u32 {
    // inline comment
    1 /* trailing */
}

/* block
   comment */
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() {
        assert_eq!(f(), 1);
    }
}

#[cfg(test)]
fn helper() {}
";
        // use, fn signature, body line, closing brace; then the
        // `#[cfg(test)]` attribute and the non-module item it is on.
        assert_eq!(count(text), 6);
    }

    #[test]
    fn the_repository_has_code() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        assert!(repo_src_loc(&root) > 10_000);
    }
}
