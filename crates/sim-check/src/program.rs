//! The fuzzer's workload grammar: a multi-process syscall program.
//!
//! A [`ProgramSpec`] is fully self-contained and deterministic — no pids,
//! no file IDs, no timestamps. Processes are numbered by position; files
//! are referenced symbolically ([`FileRef`]) as either one of the
//! pre-created shared files or the n-th file the process itself creates.
//! The harness binds the symbols to real ids at run time, which is what
//! lets the same spec replay identically under every scheduler.
//!
//! Specs round-trip through a line-oriented text form ([`std::fmt::Display`]
//! / [`ProgramSpec::parse`]) so a shrunk counterexample can be pasted back
//! into `runner check --replay`.

/// A symbolic file reference inside one process's op list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRef {
    /// The n-th pre-created file shared by all processes (never unlinked).
    Shared(usize),
    /// The n-th file this process creates with [`OpSpec::Creat`].
    Own(usize),
}

impl std::fmt::Display for FileRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileRef::Shared(i) => write!(f, "s{i}"),
            FileRef::Own(i) => write!(f, "o{i}"),
        }
    }
}

impl FileRef {
    fn parse(tok: &str) -> Option<FileRef> {
        if let Some(idx) = tok.strip_prefix('s') {
            idx.parse().ok().map(FileRef::Shared)
        } else {
            let idx = tok.strip_prefix('o')?;
            idx.parse().ok().map(FileRef::Own)
        }
    }
}

/// One operation in a process's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSpec {
    /// `read(file, offset, len)`. Holes zero-fill, so any offset is valid.
    Read {
        /// Target file.
        file: FileRef,
        /// Byte offset.
        offset: u64,
        /// Byte count (≥ 1 after sanitizing).
        len: u64,
    },
    /// `write(file, offset, len)` into the page cache.
    Write {
        /// Target file.
        file: FileRef,
        /// Byte offset.
        offset: u64,
        /// Byte count (≥ 1 after sanitizing).
        len: u64,
    },
    /// `fsync(file)`.
    Fsync {
        /// Target file.
        file: FileRef,
    },
    /// Create a new owned file (becomes `Own(n)` for the n-th creat).
    Creat,
    /// Unlink the process's n-th owned file. Shared files are never
    /// unlinked — cross-process unlink races are not part of the grammar.
    Unlink {
        /// Index among this process's created files.
        own: usize,
    },
    /// Create a directory (pure metadata: journals without data).
    Mkdir,
    /// Sleep, creating an arrival gap (bursty patterns come from
    /// heavy-tailed sleeps between op clusters).
    Sleep {
        /// Sleep length in microseconds.
        micros: u64,
    },
    /// Spin the CPU (occupies the core without touching the I/O stack).
    Compute {
        /// Compute length in microseconds.
        micros: u64,
    },
}

impl OpSpec {
    /// Whether this op issues a system call (sleep/compute do not).
    pub(crate) fn is_syscall(&self) -> bool {
        !matches!(self, OpSpec::Sleep { .. } | OpSpec::Compute { .. })
    }
}

impl std::fmt::Display for OpSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpSpec::Read { file, offset, len } => write!(f, "read {file} {offset} {len}"),
            OpSpec::Write { file, offset, len } => write!(f, "write {file} {offset} {len}"),
            OpSpec::Fsync { file } => write!(f, "fsync {file}"),
            OpSpec::Creat => write!(f, "creat"),
            OpSpec::Unlink { own } => write!(f, "unlink o{own}"),
            OpSpec::Mkdir => write!(f, "mkdir"),
            OpSpec::Sleep { micros } => write!(f, "sleep {micros}"),
            OpSpec::Compute { micros } => write!(f, "compute {micros}"),
        }
    }
}

/// One process: a straight-line list of ops, executed in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcSpec {
    /// The ops, run front to back; the process exits after the last.
    pub ops: Vec<OpSpec>,
}

/// A complete multi-process workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Pre-created shared files, referenced as `s0..`.
    pub shared_files: usize,
    /// Pre-allocated size of each shared file in bytes.
    pub shared_bytes: u64,
    /// The processes, spawned together at t = 0.
    pub procs: Vec<ProcSpec>,
}

/// Offsets are clamped below this (keeps runs inside the simulated disk).
pub(crate) const MAX_OFFSET: u64 = 16 * 1024 * 1024;
/// Single-op transfer sizes are clamped to this.
pub(crate) const MAX_LEN: u64 = 512 * 1024;
/// Sleeps and computes are clamped to this many microseconds.
pub(crate) const MAX_DELAY_MICROS: u64 = 200_000;

impl ProgramSpec {
    /// Total syscalls across all processes (sleep/compute excluded) —
    /// the size metric quoted for shrunk reproducers.
    pub fn syscall_count(&self) -> usize {
        self.procs
            .iter()
            .map(|p| p.ops.iter().filter(|o| o.is_syscall()).count())
            .sum()
    }

    /// Repair a spec into a valid program, dropping ops that cannot be
    /// made valid. Used on generator output (which is valid by
    /// construction anyway) and after every shrinking step, where removing
    /// a `creat` can orphan later `o`-references.
    ///
    /// Rules: `Own(i)` must reference an already-created, not-yet-unlinked
    /// file of the same process; `Shared(i)` is folded modulo the shared
    /// count (dropped when there are no shared files); sizes and delays
    /// are clamped to the module limits.
    pub fn sanitize(&self) -> ProgramSpec {
        let fix_ref = |r: FileRef, created: usize, unlinked: &[bool]| -> Option<FileRef> {
            match r {
                FileRef::Shared(i) if self.shared_files > 0 => {
                    Some(FileRef::Shared(i % self.shared_files))
                }
                FileRef::Shared(_) => None,
                FileRef::Own(i) if i < created && !unlinked[i] => Some(FileRef::Own(i)),
                // An orphaned own-ref (its creat was shrunk away, or the
                // file was unlinked) folds onto any still-live owned file,
                // so shrinking a creat does not cascade into dropping every
                // later op — that would strand minimization at local minima.
                FileRef::Own(_) => (0..created).find(|&j| !unlinked[j]).map(FileRef::Own),
            }
        };
        let procs = self
            .procs
            .iter()
            .map(|p| {
                let mut created = 0usize;
                let mut unlinked: Vec<bool> = Vec::new();
                let mut ops = Vec::with_capacity(p.ops.len());
                for op in &p.ops {
                    let kept = match *op {
                        OpSpec::Read { file, offset, len } => fix_ref(file, created, &unlinked)
                            .map(|file| OpSpec::Read {
                                file,
                                offset: offset.min(MAX_OFFSET),
                                len: len.clamp(1, MAX_LEN),
                            }),
                        OpSpec::Write { file, offset, len } => fix_ref(file, created, &unlinked)
                            .map(|file| OpSpec::Write {
                                file,
                                offset: offset.min(MAX_OFFSET),
                                len: len.clamp(1, MAX_LEN),
                            }),
                        OpSpec::Fsync { file } => {
                            fix_ref(file, created, &unlinked).map(|file| OpSpec::Fsync { file })
                        }
                        OpSpec::Creat => {
                            created += 1;
                            unlinked.push(false);
                            Some(OpSpec::Creat)
                        }
                        OpSpec::Unlink { own } => {
                            if own < created && !unlinked[own] {
                                unlinked[own] = true;
                                Some(OpSpec::Unlink { own })
                            } else {
                                None
                            }
                        }
                        OpSpec::Mkdir => Some(OpSpec::Mkdir),
                        OpSpec::Sleep { micros } => Some(OpSpec::Sleep {
                            micros: micros.min(MAX_DELAY_MICROS),
                        }),
                        OpSpec::Compute { micros } => Some(OpSpec::Compute {
                            micros: micros.min(MAX_DELAY_MICROS),
                        }),
                    };
                    ops.extend(kept);
                }
                ProcSpec { ops }
            })
            .collect();
        ProgramSpec {
            shared_files: self.shared_files,
            shared_bytes: self.shared_bytes.clamp(1, MAX_OFFSET),
            procs,
        }
    }

    /// Parse the text form produced by [`std::fmt::Display`]. Returns a
    /// message naming the first offending line on error.
    pub fn parse(text: &str) -> Result<ProgramSpec, String> {
        let mut shared_files = None;
        let mut shared_bytes = 0u64;
        let mut procs: Vec<ProcSpec> = Vec::new();
        let mut cur: Option<ProcSpec> = None;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |m: &str| format!("line {}: {m}: {line:?}", ln + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks[0] {
                "program" => {
                    for kv in &toks[1..] {
                        match kv.split_once('=') {
                            Some(("shared", v)) => {
                                shared_files = Some(v.parse().map_err(|_| err("bad shared count"))?)
                            }
                            Some(("bytes", v)) => {
                                shared_bytes = v.parse().map_err(|_| err("bad byte count"))?
                            }
                            _ => return Err(err("unknown program attribute")),
                        }
                    }
                }
                "proc" => {
                    if cur.is_some() {
                        return Err(err("proc inside proc"));
                    }
                    cur = Some(ProcSpec::default());
                }
                "end" => match cur.take() {
                    Some(p) => procs.push(p),
                    None => return Err(err("end outside proc")),
                },
                opname => {
                    let p = cur.as_mut().ok_or_else(|| err("op outside proc"))?;
                    let file = |i: usize| -> Result<FileRef, String> {
                        toks.get(i)
                            .and_then(|t| FileRef::parse(t))
                            .ok_or_else(|| err("bad file reference"))
                    };
                    let num = |i: usize| -> Result<u64, String> {
                        toks.get(i)
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| err("bad number"))
                    };
                    let op = match opname {
                        "read" => OpSpec::Read {
                            file: file(1)?,
                            offset: num(2)?,
                            len: num(3)?,
                        },
                        "write" => OpSpec::Write {
                            file: file(1)?,
                            offset: num(2)?,
                            len: num(3)?,
                        },
                        "fsync" => OpSpec::Fsync { file: file(1)? },
                        "creat" => OpSpec::Creat,
                        "unlink" => match file(1)? {
                            FileRef::Own(own) => OpSpec::Unlink { own },
                            FileRef::Shared(_) => return Err(err("cannot unlink shared file")),
                        },
                        "mkdir" => OpSpec::Mkdir,
                        "sleep" => OpSpec::Sleep { micros: num(1)? },
                        "compute" => OpSpec::Compute { micros: num(1)? },
                        _ => return Err(err("unknown op")),
                    };
                    p.ops.push(op);
                }
            }
        }
        if cur.is_some() {
            return Err("unterminated proc".into());
        }
        let shared_files = shared_files.ok_or("missing `program` header")?;
        Ok(ProgramSpec {
            shared_files,
            shared_bytes,
            procs,
        })
    }
}

impl std::fmt::Display for ProgramSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "program shared={} bytes={}",
            self.shared_files, self.shared_bytes
        )?;
        for p in &self.procs {
            writeln!(f, "proc")?;
            for op in &p.ops {
                writeln!(f, "  {op}")?;
            }
            writeln!(f, "end")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProgramSpec {
        ProgramSpec {
            shared_files: 2,
            shared_bytes: 1 << 20,
            procs: vec![
                ProcSpec {
                    ops: vec![
                        OpSpec::Read {
                            file: FileRef::Shared(0),
                            offset: 4096,
                            len: 8192,
                        },
                        OpSpec::Creat,
                        OpSpec::Write {
                            file: FileRef::Own(0),
                            offset: 0,
                            len: 65536,
                        },
                        OpSpec::Fsync {
                            file: FileRef::Own(0),
                        },
                        OpSpec::Unlink { own: 0 },
                        OpSpec::Mkdir,
                        OpSpec::Sleep { micros: 500 },
                    ],
                },
                ProcSpec {
                    ops: vec![OpSpec::Compute { micros: 10 }],
                },
            ],
        }
    }

    #[test]
    fn display_parse_round_trips() {
        let p = sample();
        let text = p.to_string();
        assert_eq!(ProgramSpec::parse(&text).unwrap(), p);
    }

    #[test]
    fn sanitize_drops_orphaned_own_refs() {
        let mut p = sample();
        // Remove the creat: the Own(0) write/fsync/unlink are now orphans.
        p.procs[0].ops.remove(1);
        let clean = p.sanitize();
        assert!(clean.procs[0].ops.iter().all(|o| !matches!(
            o,
            OpSpec::Write {
                file: FileRef::Own(_),
                ..
            } | OpSpec::Fsync {
                file: FileRef::Own(_)
            } | OpSpec::Unlink { .. }
        )));
        // Sanitizing a valid program is the identity.
        let valid = sample();
        assert_eq!(valid.sanitize(), valid);
    }

    #[test]
    fn sanitize_rejects_use_after_unlink_and_double_unlink() {
        let p = ProgramSpec {
            shared_files: 0,
            shared_bytes: 4096,
            procs: vec![ProcSpec {
                ops: vec![
                    OpSpec::Creat,
                    OpSpec::Unlink { own: 0 },
                    OpSpec::Write {
                        file: FileRef::Own(0),
                        offset: 0,
                        len: 1,
                    },
                    OpSpec::Unlink { own: 0 },
                ],
            }],
        };
        let clean = p.sanitize();
        assert_eq!(
            clean.procs[0].ops,
            vec![OpSpec::Creat, OpSpec::Unlink { own: 0 }]
        );
    }

    #[test]
    fn syscall_count_excludes_delays() {
        assert_eq!(sample().syscall_count(), 6);
    }
}
