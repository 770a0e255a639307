//! Ablations: knock out one design choice at a time and show which paper
//! result it was carrying.
//!
//! * **No prompt charging** (block-level revision only): Split-Token
//!   degenerates to block-level accounting — a burst can pollute the
//!   write buffer for free before any charge lands (the Figure 1
//!   failure reappears).
//! * **No cause tags** (charge the submitter): delegated writeback is
//!   billed to the writeback thread, so the throttled process escapes its
//!   cap — CFQ's Figure 3 failure, reproduced inside Split-Token.
//! * **No syscall gate** (block hooks only): AFQ loses control over
//!   buffered writers and fairness collapses to the dirty-queue FIFO.
//!
//! Each ablation reuses a production scheduler with one switch flipped,
//! so the deltas are attributable to exactly one mechanism.

use sim_core::{CauseSet, SimDuration};
use sim_workloads::{RandWriter, SeqWriter};
use split_core::{Hook, IoSched, SchedAttr, SchedCtx};
use split_schedulers::{Afq, SplitToken};

use crate::fig01_write_burst;
use crate::registry::{CellOutput, CellRequest};
use crate::setup::{build_world_with, SchedChoice, Setup};
use crate::{GB, KB, MB};

/// Run lengths. Pinned at either `--paper` scale, as the legacy runner
/// had them, so `all` output is stable.
const BURST_DURATION: SimDuration = SimDuration::from_secs(20);
const TAG_DURATION: SimDuration = SimDuration::from_secs(20);
const GATE_DURATION: SimDuration = SimDuration::from_secs(15);

/// Wraps a scheduler, selectively disabling hooks. A swallowed message
/// keeps the default answer the kernel filled in: `Proceed`, the whole
/// stretch, the first waiter.
pub(crate) struct Lobotomized {
    inner: Box<dyn IoSched>,
    /// Forward the memory-level hooks?
    pub memory_hooks: bool,
    /// Forward the syscall gate and the dirty-waiter pick?
    pub syscall_gate: bool,
    /// Strip cause tags from block requests (submitter-only accounting)?
    pub strip_causes: bool,
}

impl Lobotomized {
    /// Full scheduler with switches to turn parts off.
    pub(crate) fn new(inner: impl IoSched + 'static) -> Self {
        Lobotomized {
            inner: Box::new(inner),
            memory_hooks: true,
            syscall_gate: true,
            strip_causes: false,
        }
    }

    /// Disable the memory-level (buffer) hooks.
    pub(crate) fn without_memory_hooks(mut self) -> Self {
        self.memory_hooks = false;
        self
    }

    /// Disable the syscall-entry gate.
    pub(crate) fn without_syscall_gate(mut self) -> Self {
        self.syscall_gate = false;
        self
    }

    /// Replace each request's cause set with its submitter.
    pub(crate) fn without_cause_tags(mut self) -> Self {
        self.strip_causes = true;
        self
    }
}

impl IoSched for Lobotomized {
    fn name(&self) -> &'static str {
        "lobotomized"
    }

    fn on(&mut self, hook: Hook<'_>, ctx: &mut SchedCtx<'_>) {
        match hook {
            Hook::SyscallEnter { .. } | Hook::PickDirtyWaiter { .. } if !self.syscall_gate => {}
            Hook::BufferDirtied { .. } | Hook::BufferFreed(_) if !self.memory_hooks => {}
            Hook::BlockAdd(mut req) if self.strip_causes => {
                req.causes = CauseSet::of(req.submitter);
                self.inner.on(Hook::BlockAdd(req), ctx)
            }
            other => self.inner.on(other, ctx),
        }
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn audit(&self, quiesced: bool) -> Vec<String> {
        self.inner.audit(quiesced)
    }
}

/// Outcome of the burst ablation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BurstAblation {
    /// A's throughput in the 10 s after the burst, full Split-Token.
    pub full_after: f64,
    /// Same, with memory hooks (prompt charging) disabled.
    pub no_prompt_after: f64,
    /// A's throughput before the burst (baseline).
    pub before: f64,
}

/// Figure 1's burst world (under its own salt for B's write pattern)
/// with and without prompt (memory-level) charging. `seed` varies the
/// burst's write pattern (0 = historical run).
pub(crate) fn burst_ablation(seed: u64) -> BurstAblation {
    let cfg = fig01_write_burst::Config {
        duration: BURST_DURATION,
        seed,
    };
    let run = |sched: Lobotomized| {
        let world = fig01_write_burst::build_burst_world_with(
            &cfg,
            Setup::new(SchedChoice::SplitToken),
            Box::new(sched),
            0xab1,
        );
        fig01_write_burst::burst_series(&cfg, "lobotomized", world)
    };
    let full = run(Lobotomized::new(SplitToken::new()));
    let no_prompt = run(Lobotomized::new(SplitToken::new()).without_memory_hooks());
    BurstAblation {
        full_after: full.after,
        no_prompt_after: no_prompt.after,
        before: full.before,
    }
}

/// Outcome of the cause-tag ablation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TagAblation {
    /// Throttled B's buffered write throughput with cause tags (MB/s).
    pub with_tags_b: f64,
    /// Same with tags stripped (submitter accounting).
    pub without_tags_b: f64,
}

/// A throttled buffered writer with and without cause tags: without them,
/// delegated writeback bills the writeback thread and B escapes its cap.
/// `seed` varies B's write pattern (0 = historical run).
pub(crate) fn tag_ablation(seed: u64) -> TagAblation {
    let run = |sched: Lobotomized| {
        let setup = Setup::new(SchedChoice::SplitToken).mem(GB).seed(seed);
        let (mut w, k) = build_world_with(setup, Box::new(sched));
        let b_file = w.prealloc_file(k, 2 * GB, false);
        let b = w.spawn(
            k,
            Box::new(RandWriter::new(b_file, 2 * GB, 4 * KB, seed ^ 0xab2)),
        );
        w.configure(k, b, SchedAttr::TokenRate(MB));
        w.run_for(TAG_DURATION);
        w.kernel(k).stats.write_mbps(b, TAG_DURATION)
    };
    let block_level = || Lobotomized::new(SplitToken::new()).without_memory_hooks();
    TagAblation {
        with_tags_b: run(block_level()),
        without_tags_b: run(block_level().without_cause_tags()),
    }
}

/// Outcome of the gate ablation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateAblation {
    /// High/low priority share ratio with the syscall gate.
    pub with_gate_ratio: f64,
    /// Same without the gate.
    pub without_gate_ratio: f64,
}

/// AFQ's async-write fairness with and without the syscall-level gate.
/// `seed` varies file-system layout (0 = historical run).
pub(crate) fn gate_ablation(seed: u64) -> GateAblation {
    let run = |sched: Lobotomized| {
        let setup = Setup::new(SchedChoice::Afq).seed(seed);
        let (mut w, k) = build_world_with(setup, Box::new(sched));
        let [hi, lo] = [0u8, 7].map(|level| {
            let f = w.prealloc_file(k, 2 * GB, true);
            let pid = w.spawn(k, Box::new(SeqWriter::new(f, 2 * GB, MB)));
            w.set_ioprio(k, pid, sim_block::IoPrio::best_effort(level));
            pid
        });
        w.run_for(GATE_DURATION);
        let stats = &w.kernel(k).stats;
        stats.write_mbps(hi, GATE_DURATION) / stats.write_mbps(lo, GATE_DURATION).max(0.001)
    };
    GateAblation {
        with_gate_ratio: run(Lobotomized::new(Afq::new())),
        without_gate_ratio: run(Lobotomized::new(Afq::new()).without_syscall_gate()),
    }
}

/// `runner ablations`: the three blocks, each followed by a blank line.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let b = burst_ablation(req.seed);
    let t = tag_ablation(req.seed);
    let g = gate_ablation(req.seed);
    CellOutput {
        summary: format!("{b}\n{t}\n{g}\n"),
        metrics: vec![
            ("burst_full_after_mbps".into(), b.full_after),
            ("burst_no_prompt_after_mbps".into(), b.no_prompt_after),
            ("tag_with_tags_b_mbps".into(), t.with_tags_b),
            ("tag_without_tags_b_mbps".into(), t.without_tags_b),
            ("gate_with_ratio".into(), g.with_gate_ratio),
            ("gate_without_ratio".into(), g.without_gate_ratio),
        ],
        artifacts: Vec::new(),
        failure: None,
    }
}

impl std::fmt::Display for BurstAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation — prompt (memory-level) charging, Figure-1 burst"
        )?;
        writeln!(f, "  A before burst:              {:6.1} MB/s", self.before)?;
        writeln!(
            f,
            "  A after, full Split-Token:   {:6.1} MB/s",
            self.full_after
        )?;
        writeln!(
            f,
            "  A after, no prompt charging: {:6.1} MB/s",
            self.no_prompt_after
        )
    }
}

impl std::fmt::Display for TagAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation — cause tags (1 MB/s cap on a buffered random writer)"
        )?;
        writeln!(
            f,
            "  B with tags (block-level accounting): {:6.1} MB/s",
            self.with_tags_b
        )?;
        writeln!(
            f,
            "  B with tags stripped (submitter):     {:6.1} MB/s",
            self.without_tags_b
        )
    }
}

impl std::fmt::Display for GateAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation — the syscall gate (AFQ, prio 0 vs prio 7 writers)"
        )?;
        writeln!(
            f,
            "  hi/lo share ratio with the gate:    {:5.2}",
            self.with_gate_ratio
        )?;
        writeln!(
            f,
            "  hi/lo share ratio without the gate: {:5.2}",
            self.without_gate_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_fault::DeviceFaultPlane;

    #[test]
    fn prompt_charging_is_what_contains_the_burst() {
        let r = burst_ablation(0);
        assert!(
            r.full_after > 0.8 * r.before,
            "full Split-Token protects A: {} vs {}",
            r.full_after,
            r.before
        );
        assert!(
            r.no_prompt_after < 0.75 * r.full_after,
            "without prompt charging the burst pollutes: {} vs {}",
            r.no_prompt_after,
            r.full_after
        );
    }

    #[test]
    fn cause_tags_are_what_keep_the_throttle_honest() {
        // Block-level-only accounting is *late* (buffered writes run ahead
        // of their charges), so even with tags B's buffered rate exceeds
        // its 1 MB/s cap over a short window — but without tags the
        // delegated writeback bills the writeback thread and B escapes
        // the throttle entirely.
        let r = tag_ablation(0);
        assert!(
            r.without_tags_b > 2.0 * r.with_tags_b.max(0.05),
            "without tags, delegated writeback lets B escape: {} vs {}",
            r.without_tags_b,
            r.with_tags_b
        );
    }

    #[test]
    fn the_syscall_gate_is_what_orders_buffered_writers() {
        let r = gate_ablation(0);
        assert!(
            r.with_gate_ratio > 3.0,
            "with the gate, prio 0 ≫ prio 7: {}",
            r.with_gate_ratio
        );
        assert!(
            r.without_gate_ratio < 0.6 * r.with_gate_ratio,
            "without it, fairness collapses: {} vs {}",
            r.without_gate_ratio,
            r.with_gate_ratio
        );
    }

    /// Under device faults, a `Lobotomized` wrapper with every switch on
    /// is the scheduler it wraps: each failed write reaches the inner
    /// scheduler's refund path (not a plain completion), so the throttled
    /// writer runs exactly as fast, and the inner ledger audit is the one
    /// the kernel reads.
    #[test]
    fn a_full_wrapper_forwards_failures_and_the_audit() {
        const RUN: SimDuration = SimDuration::from_secs(5);
        let run = |sched: Box<dyn IoSched>| {
            let setup = Setup::new(SchedChoice::SplitToken).mem(32 * MB);
            let (mut w, k) = build_world_with(setup, sched);
            w.kernel_mut(k)
                .install_fault_plane(DeviceFaultPlane::with_seed(7).transient_rate(0.3));
            let file = w.prealloc_file(k, 256 * MB, true);
            let b = w.spawn(k, Box::new(SeqWriter::new(file, 256 * MB, 64 * KB)));
            w.configure(k, b, SchedAttr::TokenRate(4 * MB));
            w.run_for(RUN);
            let kernel = w.kernel(k);
            (
                kernel.stats.io_errors,
                kernel.stats.write_mbps(b, RUN),
                kernel.sched().audit(false),
            )
        };
        let bare = run(Box::new(SplitToken::new()));
        let wrapped = run(Box::new(Lobotomized::new(SplitToken::new())));
        assert!(bare.0 > 0, "no write failed: {bare:?}");
        assert_eq!(wrapped, bare);
    }
}
