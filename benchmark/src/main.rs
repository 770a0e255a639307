//! `splitbench` command line. `benchmark/run.sh` builds and calls it.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sim_core::alloc_count;
use sim_trace::json;
use splitbench::report::compare;
use splitbench::run::{run_timed, run_traced};
use splitbench::workloads::{find, WORKLOADS};

const USAGE: &str = "usage:
  splitbench --workload NAME --seed N --seconds S --trace 0|1
  splitbench --panel OUT.json [--seed N] [--seconds S]
  splitbench --compare A.json B.json

--trace 0 needs the plain build and --trace 1 the `--features alloc-count`
build; --panel runs every workload both ways in fresh child processes and
takes the traced binary's path from $SPLITBENCH_TRACED.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    panel: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: None,
        panel: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--panel" => a.panel = Some(PathBuf::from(value()?)),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn load(path: &Path) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One child's `sim_digest`, result line, and whether the line says
/// `correct`.
struct ChildResult {
    digest: String,
    line: String,
    correct: bool,
}

/// Run one workload in a fresh child process.
fn child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{workload} --trace {}: {}\n{}",
            trace as u8,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .ok_or(format!("{workload}: no sim_digest line"))?;
    let line = stdout.lines().last().unwrap_or("");
    let parsed = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok(ChildResult {
        digest: digest.to_string(),
        line: line.to_string(),
        correct: matches!(parsed.get("correct"), Some(json::Value::Bool(true))),
    })
}

/// Every workload, timed and traced, each in a child process of its own
/// (so counters start from zero and peak RSS is per workload), gathered
/// into one document for `--compare`.
fn panel(out: &Path, seed: u64, seconds: f64) -> Result<bool, String> {
    let plain = std::env::current_exe().map_err(|e| e.to_string())?;
    let traced = std::env::var_os("SPLITBENCH_TRACED")
        .map(PathBuf::from)
        .ok_or("--panel needs $SPLITBENCH_TRACED (benchmark/run.sh sets it)")?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let timed = child(&plain, w.name, seed, seconds, false)?;
        let traced = child(&traced, w.name, seed, seconds, true)?;
        if timed.digest != traced.digest {
            all_correct = false;
            println!(
                "FAILED {}: traced sim_digest {} differs from timed {}",
                w.name, traced.digest, timed.digest
            );
        }
        all_correct &= timed.correct && traced.correct;
        entries.push(format!(
            "\"{}\":{{\"sim_digest\":\"{}\",\"timed\":{},\"traced\":{}}}",
            w.name, timed.digest, timed.line, traced.line
        ));
    }
    let doc = format!(
        "{{\"schema\":\"splitbench-1\",\"seed\":{seed},\"seconds\":{seconds},\"workloads\":{{\n{}\n}}}}\n",
        entries.join(",\n")
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("panel written to {}", out.display());
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let a = parse_args()?;
    if let Some((x, y)) = &a.compare {
        let c = compare(&load(x)?, &load(y)?);
        print!("{}", c.render());
        return Ok(c.agrees());
    }
    if let Some(out) = &a.panel {
        return panel(out, a.seed, a.seconds);
    }
    let name = a
        .workload
        .ok_or("--workload, --panel or --compare is required")?;
    let w = find(&name).ok_or(format!(
        "unknown workload {name}; one of {}",
        WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let trace = a.trace.ok_or("--trace 0|1 is required")?;
    // Timed reps must not pay the counting allocator's atomics, and the
    // traced rep needs them: each mode has its own build.
    if trace != alloc_count::enabled() {
        return Err(format!(
            "--trace {} needs the {} build (benchmark/run.sh picks it)",
            trace as u8,
            if trace {
                "`--features alloc-count`"
            } else {
                "plain"
            }
        ));
    }
    let result = if trace {
        run_traced(w, a.seed, a.seconds, Path::new("."))
    } else {
        run_timed(w, a.seed, a.seconds)
    };
    result.print();
    // A run that found failures still ran: it says so in its result line.
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("splitbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
