//! Span records: one timed interval per logical operation, tagged with
//! the layer it ran in, the task that ran it, and the cause set it
//! carried. Parent/child links let a single fsync decompose into
//! gate-wait / cache / journal-entanglement / queue / device segments.

use sim_core::{CauseSet, Pid, SimDuration, SimTime};

/// The stack layer a span belongs to. Exported as the Chrome-trace
/// category, so Perfetto can filter per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// Syscall entry to completion, as the process experiences it.
    Syscall,
    /// Waiting at the split framework's syscall gate.
    Gate,
    /// Page-cache work: dirty throttling waits, fills.
    Cache,
    /// Writeback passes (delegated dirty-page flushing).
    Writeback,
    /// Journal commits and fsync entanglement waits.
    Journal,
    /// Block-layer queueing (submit to dispatch).
    Block,
    /// Device service (dispatch to completion).
    Device,
}

impl Layer {
    /// Every layer, in stack order.
    pub const ALL: [Layer; 7] = [
        Layer::Syscall,
        Layer::Gate,
        Layer::Cache,
        Layer::Writeback,
        Layer::Journal,
        Layer::Block,
        Layer::Device,
    ];

    /// Stable lowercase name (Chrome-trace `cat`, CSV column).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Syscall => "syscall",
            Layer::Gate => "gate",
            Layer::Cache => "cache",
            Layer::Writeback => "writeback",
            Layer::Journal => "journal",
            Layer::Block => "block",
            Layer::Device => "device",
        }
    }
}

/// Static span names for hardware-queue slots, so per-slot device
/// spans stay alloc-free (`begin` takes `&'static str`). Slots past
/// the table share a generic name — queue depths above 32 are outside
/// the modeled NCQ/NVMe range anyway.
pub fn slot_name(slot: u32) -> &'static str {
    const NAMES: [&str; 32] = [
        "slot00", "slot01", "slot02", "slot03", "slot04", "slot05", "slot06", "slot07", "slot08",
        "slot09", "slot10", "slot11", "slot12", "slot13", "slot14", "slot15", "slot16", "slot17",
        "slot18", "slot19", "slot20", "slot21", "slot22", "slot23", "slot24", "slot25", "slot26",
        "slot27", "slot28", "slot29", "slot30", "slot31",
    ];
    NAMES.get(slot as usize).copied().unwrap_or("slot")
}

/// A stable span identifier. Zero is the reserved "no span" value, for a
/// span never opened or dropped past the tracer's cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The absent span (never opened, dropped past the cap, or no parent).
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Raw integer value (0 means none).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id (never [`SpanId::NONE`] once recorded).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Stack layer.
    pub layer: Layer,
    /// Operation name ("fsync", "queue", "journal_commit", ...).
    pub name: &'static str,
    /// The task the span ran on (proxy tasks keep their own pids, which
    /// is what makes write delegation visible in a trace).
    pub pid: Pid,
    /// Responsible processes, per the split framework's cause tags.
    pub causes: CauseSet,
    /// Span open time.
    pub start: SimTime,
    /// Span close time; `None` while still open (e.g. cut off at the
    /// end of a run).
    pub end: Option<SimTime>,
    /// Optional correlation value: transaction id for journal spans,
    /// request id for block/device spans.
    pub arg: Option<u64>,
}

impl SpanRecord {
    /// Elapsed time, if the span closed.
    pub(crate) fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.since(self.start))
    }
}
