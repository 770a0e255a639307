//! The hierarchical layer arbiter: an [`IoSched`] that classifies
//! processes into layers, hosts an existing child scheduler inside each
//! layer, and enforces per-layer policies on top of whatever the
//! children decide.
//!
//! Policy enforcement follows the split-level discipline throughout
//! (paper §3.3): bandwidth caps gate *write-like syscalls* at admission
//! and throttle *block reads* at dispatch, but never hold a block write
//! below the journal — delaying an entangled data write would stall
//! every tenant's fsync through the shared transaction. Per-layer dirty
//! budgets bound how much write-behind a noisy layer can pile into the
//! shared journal in the first place.

use crate::solver::{solve, FeasibleWeights, LayerEntitlement};
use crate::spec::{validate, LayerPolicy, LayerRule, LayerSpec, SpecError};
use sim_block::{Dispatch, PrioClass, ReqKind, Request};
use sim_core::{FastMap, FileId, Pid, RequestId, SimDuration, SimTime, PAGE_SIZE};
use split_core::{
    BufferDirtied, BufferFreed, Gate, Hook, IoSched, SchedAttr, SchedCtx, Scheduler, SyscallInfo,
    SyscallKind,
};
use std::collections::VecDeque;

/// Window over which per-layer utilization shares are measured for the
/// min-utilization guarantee.
const UTIL_WINDOW: SimDuration = SimDuration::from_millis(100);

/// Re-check cadence while writers are held on a dirty budget.
const POLL_INTERVAL: SimDuration = SimDuration::from_millis(2);

/// Arbiter-level tunables.
#[derive(Debug, Clone, Copy)]
pub struct LayeredConfig {
    /// Total dirty-page budget split across layers by share; a layer
    /// over its slice has write syscalls held while the arbiter kicks
    /// writeback. `None` disables per-layer dirty budgeting.
    pub dirty_budget: Option<u64>,
    /// Planted cap-leak bug for mutation tests: every Nth bucket charge
    /// is skipped, letting a capped layer exceed its bandwidth. The
    /// `LayerAuditor` must catch this. Never set outside tests.
    pub cap_leak_every: Option<u64>,
    /// Eager-writeback threshold for non-latency layers, active only
    /// when the tree has a latency layer. The shared journal runs in
    /// ordered mode, so a latency tenant's commit must flush *every*
    /// writer's dirty data first (the Figure 4 entanglement); keeping
    /// other layers' dirty sets near zero is the only dispatch-side
    /// lever on that tail. Once a non-latency layer's dirty bytes reach
    /// this threshold the arbiter kicks targeted writeback. `None`
    /// disables the mechanism.
    pub eager_wb_bytes: Option<u64>,
}

impl Default for LayeredConfig {
    fn default() -> Self {
        LayeredConfig {
            dirty_budget: None,
            cap_leak_every: None,
            eager_wb_bytes: Some(256 * 1024),
        }
    }
}

/// Token bucket enforcing a layer's bandwidth cap, in bytes.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    rate: f64,
    burst: f64,
    balance: f64,
    last: SimTime,
}

impl Bucket {
    fn new(bytes_per_sec: u64) -> Self {
        // One second of burst: small enough that the auditor's window
        // bound is tight, large enough not to chop single syscalls.
        let rate = bytes_per_sec as f64;
        Bucket {
            rate,
            burst: rate,
            balance: rate,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last {
            let dt = (now.as_nanos() - self.last.as_nanos()) as f64 / 1e9;
            self.balance = (self.balance + self.rate * dt).min(self.burst);
            self.last = now;
        }
    }

    fn affordable(&self, bytes: u64) -> bool {
        self.balance >= bytes as f64
    }

    fn charge(&mut self, bytes: u64) {
        self.balance -= bytes as f64;
    }

    fn refund(&mut self, bytes: u64) {
        self.balance = (self.balance + bytes as f64).min(self.burst);
    }

    /// When `bytes` will be affordable at the current rate.
    fn ready_at(&self, now: SimTime, bytes: u64) -> SimTime {
        let deficit = (bytes as f64 - self.balance).max(0.0);
        let ns = (deficit / self.rate * 1e9).ceil() as u64;
        now + SimDuration::from_nanos(ns.max(1))
    }
}

struct Layer {
    spec: LayerSpec,
    child: Box<dyn IoSched>,
    bucket: Option<Bucket>,
    /// Cumulative dispatched bytes / effective share — the deficit
    /// round-robin virtual service clock.
    vsrv: f64,
    /// Utilization windows (bytes dispatched), rolled lazily.
    win_cur: u64,
    win_prev: u64,
    /// Dirty bytes attributed to this layer (charged at buffer-dirty,
    /// revised at data-write dispatch, split-token style).
    dirty_bytes: u64,
    /// Reads the arbiter withheld — over the layer's cap, or parked
    /// behind a latency-layer fsync (the boost window).
    parked: VecDeque<Request>,
    /// Requests this layer has at the device right now.
    in_flight: u32,
}

impl Layer {
    fn latency_prio(&self) -> bool {
        self.spec.policy == LayerPolicy::LatencyPrio
    }
}

/// The first page (counting from 0) of a stretch of pages dirtying
/// `new_bytes` each whose bytes bring a layer holding `dirty` bytes to
/// `threshold`; `u64::MAX` if no page ever does.
fn crossing_page(dirty: u64, new_bytes: u64, threshold: u64) -> u64 {
    if dirty >= threshold {
        0
    } else if new_bytes == 0 {
        u64::MAX
    } else {
        (threshold - dirty).div_ceil(new_bytes) - 1
    }
}

/// The hierarchical layer plane: one `IoSched` wrapping a tree of child
/// schedulers, one per layer.
pub struct Layered {
    cfg: LayeredConfig,
    layers: Vec<Layer>,
    /// Solver output: effective share and min per layer, plus report.
    report: FeasibleWeights,
    /// Process → layer, fixed at admission.
    assign: FastMap<Pid, usize>,
    /// Names registered via `SchedAttr::ProcName` before admission.
    names: FastMap<Pid, &'static str>,
    /// I/O classes seen via `SchedAttr::Prio` before admission.
    classes: FastMap<Pid, PrioClass>,
    /// In-flight request → layer, for completion routing.
    req_layer: FastMap<RequestId, usize>,
    /// Writers held at the gate by a bandwidth cap: (pid, bytes, layer).
    cap_held: VecDeque<(Pid, u64, usize)>,
    /// Writers held at the gate by the dirty budget: (pid, layer).
    dirty_held: VecDeque<(Pid, usize)>,
    /// Non-latency writers held at the gate for the duration of a
    /// latency-layer fsync (released when the boost window closes).
    boost_held: VecDeque<Pid>,
    /// Eager-writeback kicks deferred past the boost window: issuing
    /// flush traffic mid-commit interleaves seeks with the journal
    /// writes the latency tenant is waiting on.
    wb_deferred: Vec<(FileId, usize)>,
    /// Earliest armed arbiter timer, to avoid re-arming storms.
    timer_at: Option<SimTime>,
    /// Window bookkeeping.
    win_start: SimTime,
    win_total_cur: u64,
    win_total_prev: u64,
    /// Latency-layer fsyncs currently inside the syscall layer. While
    /// nonzero, non-latency data *reads* are parked at dispatch: a read
    /// is never part of an fsync's dependency set (Figure 5), but every
    /// queued write may be — the journal commit's ordered flush must not
    /// interleave with scan traffic while a latency tenant waits.
    fsync_boost: u32,
    /// Whether any layer has latency priority (precomputed; gates the
    /// eager-writeback and queue-reservation disciplines).
    has_latency: bool,
    /// Dispatch candidate ordering scratch (no per-call allocation).
    order: Vec<usize>,
    /// Cap-leak mutation counter (see `LayeredConfig::cap_leak_every`).
    leak_tick: u64,
}

impl Layered {
    /// Build the tree. `resolve` maps a child scheduler name to an
    /// instance; returning `None` rejects the spec (unknown child).
    pub fn build(
        specs: Vec<LayerSpec>,
        cfg: LayeredConfig,
        resolve: &mut dyn FnMut(&str) -> Option<Box<dyn IoSched>>,
    ) -> Result<Layered, SpecError> {
        validate(&specs)?;
        let ents: Vec<LayerEntitlement> = specs.iter().map(LayerEntitlement::from_spec).collect();
        let report = solve(&ents);
        let mut layers = Vec::with_capacity(specs.len());
        for spec in specs {
            let child =
                resolve(&spec.child).ok_or_else(|| SpecError::UnknownChild(spec.child.clone()))?;
            let bucket = match spec.policy {
                LayerPolicy::BandwidthCap { bytes_per_sec } => Some(Bucket::new(bytes_per_sec)),
                _ => None,
            };
            layers.push(Layer {
                spec,
                child,
                bucket,
                vsrv: 0.0,
                win_cur: 0,
                win_prev: 0,
                dirty_bytes: 0,
                parked: VecDeque::new(),
                in_flight: 0,
            });
        }
        let n = layers.len();
        let has_latency = layers.iter().any(|l| l.latency_prio());
        Ok(Layered {
            cfg,
            layers,
            has_latency,
            report,
            assign: FastMap::default(),
            names: FastMap::default(),
            classes: FastMap::default(),
            req_layer: FastMap::default(),
            cap_held: VecDeque::new(),
            dirty_held: VecDeque::new(),
            boost_held: VecDeque::new(),
            wb_deferred: Vec::new(),
            timer_at: None,
            win_start: SimTime::ZERO,
            win_total_cur: 0,
            win_total_prev: 0,
            fsync_boost: 0,
            order: Vec::with_capacity(n),
            leak_tick: 0,
        })
    }

    /// A degenerate single-layer tree around one child. With no cap, no
    /// budget and no latency layer the general path only forwards: the
    /// equivalence tests prove it byte-identical to the flat child.
    pub fn single(child: Box<dyn IoSched>) -> Layered {
        let spec = LayerSpec::new("all", LayerRule::Default, child.name());
        let mut child = Some(child);
        Layered::build(vec![spec], LayeredConfig::default(), &mut |_| child.take())
            .expect("single-layer spec is always valid")
    }

    /// The feasibility solver's verdict on this tree.
    pub fn feasibility(&self) -> &FeasibleWeights {
        &self.report
    }

    fn classify_pid(&mut self, pid: Pid) -> usize {
        if let Some(&i) = self.assign.get(&pid) {
            return i;
        }
        let specs: Vec<&LayerSpec> = self.layers.iter().map(|l| &l.spec).collect();
        let name = self.names.get(&pid).copied();
        let class = self.classes.get(&pid).copied();
        let i = specs
            .iter()
            .position(|s| s.rule.matches(pid, name, class))
            .unwrap_or(specs.len() - 1);
        self.assign.insert(pid, i);
        i
    }

    /// Route a block request to a layer. Latency inheritance first: if
    /// any entangled cause belongs to a latency layer, the request rides
    /// that layer — a shared journal commit a latency tenant's fsync
    /// waits on must not queue behind bulk traffic (the cause-tag
    /// analogue of priority inheritance). Otherwise shared
    /// journal/metadata I/O goes to the default (last) layer, and data
    /// routes by its first classified cause, then by submitter, then
    /// default.
    fn layer_of_req(&mut self, req: &Request) -> usize {
        for &pid in req.causes.as_slice() {
            if let Some(&i) = self.assign.get(&pid) {
                if self.layers[i].latency_prio() {
                    return i;
                }
            }
        }
        if req.kind != ReqKind::Data {
            return self.layers.len() - 1;
        }
        for &pid in req.causes.as_slice() {
            if let Some(&i) = self.assign.get(&pid) {
                return i;
            }
        }
        if let Some(&i) = self.assign.get(&req.submitter) {
            return i;
        }
        self.layers.len() - 1
    }

    fn layer_of_causes(&self, causes: &sim_core::CauseSet) -> usize {
        for &pid in causes.as_slice() {
            if let Some(&i) = self.assign.get(&pid) {
                return i;
            }
        }
        self.layers.len() - 1
    }

    fn roll_windows(&mut self, now: SimTime) {
        let w = UTIL_WINDOW.as_nanos();
        let start = self.win_start.as_nanos();
        if now.as_nanos() >= start + w {
            let gap = (now.as_nanos() - start) / w;
            if gap >= 2 {
                // Idle gap: both windows are stale.
                for l in &mut self.layers {
                    l.win_prev = 0;
                    l.win_cur = 0;
                }
                self.win_total_prev = 0;
                self.win_total_cur = 0;
            } else {
                for l in &mut self.layers {
                    l.win_prev = l.win_cur;
                    l.win_cur = 0;
                }
                self.win_total_prev = self.win_total_cur;
                self.win_total_cur = 0;
            }
            self.win_start = SimTime::from_nanos(start + gap * w);
        }
    }

    fn util_share(&self, i: usize) -> f64 {
        let total = self.win_total_prev + self.win_total_cur;
        if total == 0 {
            return 1.0; // nothing dispatched: nobody is in deficit
        }
        (self.layers[i].win_prev + self.layers[i].win_cur) as f64 / total as f64
    }

    fn dirty_budget_of(&self, i: usize) -> Option<u64> {
        self.cfg
            .dirty_budget
            .map(|total| (total as f64 * self.report.shares[i]).max(PAGE_SIZE as f64) as u64)
    }

    fn arm_timer(&mut self, at: SimTime, ctx: &mut SchedCtx<'_>) {
        let due = match self.timer_at {
            Some(t) if t > ctx.now && t <= at => return,
            _ => at,
        };
        self.timer_at = Some(due);
        ctx.set_timer(due);
    }

    /// Charge `bytes` to layer `i`'s cap bucket, unless the planted
    /// cap-leak bug (mutation testing) swallows this charge.
    fn charge_cap(&mut self, i: usize, bytes: u64) {
        if let Some(every) = self.cfg.cap_leak_every {
            self.leak_tick += 1;
            if self.leak_tick.is_multiple_of(every) {
                return; // the bug: admitted but never charged
            }
        }
        if let Some(b) = self.layers[i].bucket.as_mut() {
            b.charge(bytes);
        }
    }

    /// Release gate-held writers whose constraint has cleared.
    fn release_held(&mut self, ctx: &mut SchedCtx<'_>) {
        let now = ctx.now;
        // Bandwidth-cap holds: FIFO per layer; stop at the first pid a
        // layer still cannot afford so release order stays fair.
        let mut blocked: u32 = 0; // bitmask of layers already blocked
        let mut k = 0;
        while k < self.cap_held.len() {
            let (pid, bytes, li) = self.cap_held[k];
            let bit = 1u32 << (li as u32 % 32);
            let affordable = {
                let b = self.layers[li]
                    .bucket
                    .as_mut()
                    .expect("cap-held implies bucket");
                b.refill(now);
                b.affordable(bytes)
            };
            if blocked & bit == 0 && affordable {
                self.charge_cap(li, bytes);
                ctx.wake(pid);
                self.cap_held.remove(k);
            } else {
                blocked |= bit;
                k += 1;
            }
        }
        // Dirty-budget holds.
        let mut k = 0;
        while k < self.dirty_held.len() {
            let (pid, li) = self.dirty_held[k];
            let under = match self.dirty_budget_of(li) {
                Some(budget) => self.layers[li].dirty_bytes <= budget,
                None => true,
            };
            if under {
                ctx.wake(pid);
                self.dirty_held.remove(k);
            } else {
                k += 1;
            }
        }
        // Keep a poll timer alive while anyone is still held.
        if let Some(&(_, bytes, li)) = self.cap_held.front() {
            let b = self.layers[li].bucket.as_ref().expect("bucket");
            let at = b.ready_at(now, bytes);
            self.arm_timer(at, ctx);
        }
        if !self.dirty_held.is_empty() {
            let at = now + POLL_INTERVAL;
            self.arm_timer(at, ctx);
        }
    }

    /// Hand layer `i`'s child a dirtied stretch and count the pages it
    /// took as the layer's dirty bytes. Returns the pages taken.
    fn dirty_child(&mut self, i: usize, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        let mut taken = ev.len;
        self.layers[i].child.on(
            Hook::BufferDirtied {
                ev: *ev,
                taken: &mut taken,
            },
            ctx,
        );
        self.layers[i].dirty_bytes += taken * ev.new_bytes;
        taken
    }

    fn sample_gauges(&self, ctx: &mut SchedCtx<'_>) {
        ctx.gauges(|emit| {
            for (i, l) in self.layers.iter().enumerate() {
                let key = i as u64;
                emit("layered.util_share", key, self.util_share(i));
                emit("layered.dirty_bytes", key, l.dirty_bytes as f64);
                if let Some(b) = l.bucket.as_ref() {
                    emit("layered.cap_balance", key, b.balance);
                }
            }
        });
    }
}

impl Scheduler for Layered {
    fn name(&self) -> &'static str {
        "layered"
    }

    fn configure(&mut self, pid: Pid, attr: SchedAttr, ctx: &mut SchedCtx<'_>) {
        if let SchedAttr::ProcName(n) = attr {
            // Admission metadata; meaningful only before first I/O.
            self.names.insert(pid, n);
            return;
        }
        if let SchedAttr::Prio(p) = attr {
            self.classes.entry(pid).or_insert(p.class);
        }
        let i = self.classify_pid(pid);
        self.layers[i].child.on(Hook::Configure { pid, attr }, ctx);
    }

    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        self.classes.entry(sc.pid).or_insert(sc.ioprio.class);
        let i = self.classify_pid(sc.pid);
        if matches!(sc.kind, SyscallKind::Fsync { .. }) && self.layers[i].latency_prio() {
            self.fsync_boost += 1;
        }
        if sc.kind.is_write_like() {
            let bytes = match sc.kind {
                SyscallKind::Write { len, .. } => len,
                _ => 0,
            };
            // Bandwidth cap: admission control on write bytes. Fsync and
            // metadata ops carry no payload and are never held here.
            if bytes > 0 {
                if let Some(b) = self.layers[i].bucket.as_mut() {
                    b.refill(ctx.now);
                    if !b.affordable(bytes) {
                        let at = b.ready_at(ctx.now, bytes);
                        self.cap_held.push_back((sc.pid, bytes, i));
                        self.arm_timer(at, ctx);
                        return Gate::Hold;
                    }
                    self.charge_cap(i, bytes);
                }
                // Dirty budget: a layer over its slice of the dirty pool
                // must wait for its own writeback, not push more into the
                // shared journal.
                if let Some(budget) = self.dirty_budget_of(i) {
                    if self.layers[i].dirty_bytes > budget {
                        let excess = self.layers[i].dirty_bytes - budget;
                        let pages = (excess / PAGE_SIZE + 16).max(32);
                        ctx.start_writeback(None, pages);
                        self.dirty_held.push_back((sc.pid, i));
                        let at = ctx.now + POLL_INTERVAL;
                        self.arm_timer(at, ctx);
                        return Gate::Hold;
                    }
                }
                // Boost window: a latency fsync is committing. Dirtying
                // more data now would spawn flush traffic that seeks
                // against the very journal writes the fsync waits on,
                // so non-latency writers pause until it exits. The cap
                // was already charged; the wake resumes the syscall
                // without re-entering this gate.
                if self.fsync_boost > 0 && !self.layers[i].latency_prio() {
                    self.boost_held.push_back(sc.pid);
                    return Gate::Hold;
                }
            }
        }
        let mut gate = Gate::Proceed;
        self.layers[i].child.on(
            Hook::SyscallEnter {
                sc,
                gate: &mut gate,
            },
            ctx,
        );
        gate
    }

    fn syscall_exit(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) {
        let i = self.classify_pid(sc.pid);
        if matches!(sc.kind, SyscallKind::Fsync { .. }) && self.layers[i].latency_prio() {
            self.fsync_boost = self.fsync_boost.saturating_sub(1);
            if self.fsync_boost == 0 {
                // The boost window closed: resume held writers, kick
                // deferred writeback, and let parked reads go.
                while let Some(pid) = self.boost_held.pop_front() {
                    ctx.wake(pid);
                }
                for (file, li) in std::mem::take(&mut self.wb_deferred) {
                    let pages = self.layers[li].dirty_bytes / PAGE_SIZE + 1;
                    ctx.start_writeback(Some(file), pages);
                }
                if self.layers.iter().any(|l| !l.parked.is_empty()) {
                    ctx.kick_dispatch();
                }
            }
        }
        self.layers[i].child.on(Hook::SyscallExit(sc), ctx)
    }

    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        let i = self.layer_of_causes(ev.causes);
        // Entanglement control: a latency layer's fsync commit flushes
        // every ordered file's dirty data, so other layers' dirty pages
        // are latent commit work. Write them back eagerly, from the page
        // whose bytes bring the layer to the threshold: the pages before
        // it go to the child as one stretch, and it starts another.
        let crossing = self
            .cfg
            .eager_wb_bytes
            .filter(|_| self.has_latency && !self.layers[i].latency_prio())
            .map(|threshold| crossing_page(self.layers[i].dirty_bytes, ev.new_bytes, threshold))
            .filter(|&k| k < ev.len);
        let Some(k) = crossing else {
            return self.dirty_child(i, ev, ctx);
        };
        if k > 0 {
            let taken = self.dirty_child(i, &ev.sub(0, k), ctx);
            if taken < k || ctx.has_commands() {
                return taken;
            }
        }
        let rest = if self.fsync_boost > 0 {
            // Mid-commit flush traffic would interleave with the journal
            // writes; kick it when the boost closes. Every later page is
            // over the threshold too and finds the file deferred already.
            if !self.wb_deferred.iter().any(|(f, _)| *f == ev.file) {
                self.wb_deferred.push((ev.file, i));
            }
            ev.len - k
        } else {
            // Queued before the child sees the page; the kernel applies
            // it before it dirties the next one.
            let dirty = self.layers[i].dirty_bytes + ev.new_bytes;
            ctx.start_writeback(Some(ev.file), dirty / PAGE_SIZE + 1);
            1
        };
        k + self.dirty_child(i, &ev.sub(k, rest), ctx)
    }

    fn buffer_freed(&mut self, ev: &BufferFreed, ctx: &mut SchedCtx<'_>) {
        let i = self.layer_of_causes(&ev.causes);
        self.layers[i].dirty_bytes = self.layers[i].dirty_bytes.saturating_sub(ev.bytes);
        self.layers[i].child.on(Hook::BufferFreed(ev), ctx);
        if !self.dirty_held.is_empty() {
            self.release_held(ctx);
        }
    }

    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        let i = self.layer_of_req(&req);
        self.req_layer.insert(req.id, i);
        self.layers[i].child.on(Hook::BlockAdd(req), ctx)
    }

    fn block_dispatch(&mut self, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let now = ctx.now;
        self.roll_windows(now);
        for l in &mut self.layers {
            if let Some(b) = l.bucket.as_mut() {
                b.refill(now);
            }
        }

        // Candidate order: latency layers first, then min-utilization
        // layers still under their guarantee, then everyone else by the
        // deficit round-robin clock. Ties break by tree order.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..self.layers.len());
        {
            let rank = |i: usize| -> (u8, f64, usize) {
                let l = &self.layers[i];
                if l.latency_prio() {
                    (0, 0.0, i)
                } else if self.report.mins[i] > 0.0 && self.util_share(i) < self.report.mins[i] {
                    (1, 0.0, i)
                } else {
                    (2, l.vsrv, i)
                }
            };
            order.sort_by(|&a, &b| {
                let (ca, va, ia) = rank(a);
                let (cb, vb, ib) = rank(b);
                ca.cmp(&cb).then(va.total_cmp(&vb)).then(ia.cmp(&ib))
            });
        }

        let mut wait: Option<SimTime> = None;
        let note_wait = |w: &mut Option<SimTime>, t: SimTime| {
            *w = Some(match *w {
                Some(cur) if cur <= t => cur,
                _ => t,
            });
        };
        let depth = ctx.occupancy().map(|o| o.depth);
        let mut issued: Option<Request> = None;
        for &i in &order {
            // Occupancy-aware slot cap on a deep hardware queue: a
            // non-latency layer may not hog the hardware queue past its
            // share of the slots. When the tree has a latency layer the
            // queue is reserved for it outright — each slot another
            // layer holds is up to one full seek of added fsync tail
            // (an issued request cannot be recalled, Figure 1) — so all
            // other layers together pipeline a single request, which
            // restores a one-slot device's one-quantum blocking bound.
            if let Some(d) = depth {
                if !self.layers[i].latency_prio() && d > 1 {
                    if self.has_latency {
                        let others: u32 = self
                            .layers
                            .iter()
                            .filter(|l| !l.latency_prio())
                            .map(|l| l.in_flight)
                            .sum();
                        if others >= 1 {
                            continue;
                        }
                    } else {
                        let limit = ((self.report.shares[i] * d as f64).ceil() as u32).max(1);
                        if self.layers[i].in_flight >= limit {
                            continue;
                        }
                    }
                }
            }
            let boosted_past = self.fsync_boost > 0 && !self.layers[i].latency_prio();
            // A parked read goes first once its hold has cleared: the
            // bucket can afford it and no latency fsync is in flight.
            // During the boost window the parked queue waits (woken by
            // kick_dispatch when the fsync exits) but the child is still
            // polled below: a write queued behind a parked read may be
            // ordered data the boosted fsync itself is waiting for.
            let parked_front = self.layers[i].parked.front().map(|r| r.bytes());
            if let Some(front_bytes) = parked_front.filter(|_| !boosted_past) {
                match self.layers[i].bucket.as_ref() {
                    Some(b) if !b.affordable(front_bytes) => {
                        let at = b.ready_at(now, front_bytes);
                        note_wait(&mut wait, at);
                        continue;
                    }
                    Some(_) => self.charge_cap(i, front_bytes),
                    None => {}
                }
                issued = self.layers[i].parked.pop_front();
                break;
            }
            let mut d = Dispatch::Idle;
            self.layers[i].child.on(Hook::BlockDispatch(&mut d), ctx);
            match d {
                Dispatch::Issue(req) => {
                    // Cap discipline: reads are throttled here; writes
                    // are never held below the journal (they were
                    // admission-gated at the syscall). Reads also park
                    // for the duration of a latency-layer fsync — they
                    // are never part of its dependency set, but the
                    // writes behind them may be.
                    if req.is_read() {
                        if boosted_past {
                            self.layers[i].parked.push_back(req);
                            continue;
                        }
                        if let Some(b) = self.layers[i].bucket.as_ref() {
                            if !b.affordable(req.bytes()) {
                                let at = b.ready_at(now, req.bytes());
                                self.layers[i].parked.push_back(req);
                                note_wait(&mut wait, at);
                                continue;
                            }
                            let bytes = req.bytes();
                            self.charge_cap(i, bytes);
                        }
                    }
                    issued = Some(req);
                    break;
                }
                Dispatch::WaitUntil(t) => {
                    note_wait(&mut wait, t);
                }
                Dispatch::Idle => {}
            }
        }
        self.order = order;

        match issued {
            Some(req) => {
                let i = *self
                    .req_layer
                    .get(&req.id)
                    .unwrap_or(&(self.layers.len() - 1));
                let bytes = req.bytes();
                let share = self.report.shares[i].max(1e-6);
                self.layers[i].vsrv += bytes as f64 / share;
                self.layers[i].win_cur += bytes;
                self.win_total_cur += bytes;
                self.layers[i].in_flight += 1;
                if req.kind == ReqKind::Data && !req.is_read() {
                    self.layers[i].dirty_bytes = self.layers[i].dirty_bytes.saturating_sub(bytes);
                    if !self.dirty_held.is_empty() {
                        self.release_held(ctx);
                    }
                }
                self.sample_gauges(ctx);
                Dispatch::Issue(req)
            }
            None => match wait {
                Some(t) => Dispatch::WaitUntil(t.max(now + SimDuration::from_nanos(1))),
                None => Dispatch::Idle,
            },
        }
    }

    fn block_completed(&mut self, req: &Request, failed: bool, ctx: &mut SchedCtx<'_>) {
        let i = self
            .req_layer
            .remove(&req.id)
            .unwrap_or(self.layers.len() - 1);
        self.layers[i].in_flight = self.layers[i].in_flight.saturating_sub(1);
        // Reads were charged at dispatch; a failed one never transferred.
        if failed && req.is_read() {
            if let Some(b) = self.layers[i].bucket.as_mut() {
                b.refund(req.bytes());
            }
        }
        self.layers[i]
            .child
            .on(Hook::BlockCompleted { req, failed }, ctx)
    }

    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        if let Some(t) = self.timer_at {
            if ctx.now >= t {
                self.timer_at = None;
            }
        }
        self.release_held(ctx);
        if self.layers.iter().any(|l| !l.parked.is_empty()) {
            ctx.kick_dispatch();
        }
        // Children share the kernel's timer plumbing; each tolerates
        // spurious maintenance fires.
        for l in &mut self.layers {
            l.child.on(Hook::Timer, ctx);
        }
    }

    fn pick_dirty_waiter(&mut self, waiters: &[Pid], ctx: &mut SchedCtx<'_>) -> usize {
        let Some(&first) = waiters.first() else {
            return 0;
        };
        // All in one layer: that child's policy decides.
        let f = self.classify_pid(first);
        if waiters.iter().all(|&p| self.classify_pid(p) == f) {
            let mut pick = 0;
            let hook = Hook::PickDirtyWaiter {
                waiters,
                pick: &mut pick,
            };
            self.layers[f].child.on(hook, ctx);
            return pick;
        }
        // Cross-layer: admit the highest-ranked layer's writer first
        // (latency layers, then tree order), FIFO within a layer.
        let rank = |s: &mut Self, p| {
            let l = s.classify_pid(p);
            if s.layers[l].latency_prio() {
                0
            } else {
                l + 1
            }
        };
        (0..waiters.len())
            .min_by_key(|&k| rank(self, waiters[k]))
            .unwrap_or(0)
    }

    fn queued(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.child.queued() + l.parked.len())
            .sum()
    }

    fn audit(&self, quiesced: bool) -> Vec<String> {
        let mut out = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            for msg in l.child.audit(quiesced) {
                out.push(format!(
                    "layer '{}' ({}): {}",
                    l.spec.name,
                    l.child.name(),
                    msg
                ));
            }
            if let Some(b) = l.bucket.as_ref() {
                if !b.balance.is_finite() {
                    out.push(format!(
                        "layer '{}': cap bucket balance not finite ({})",
                        l.spec.name, b.balance
                    ));
                }
            }
            if quiesced && !l.parked.is_empty() {
                out.push(format!(
                    "layer '{}': {} parked read(s) at quiesce",
                    l.spec.name,
                    l.parked.len()
                ));
            }
            if quiesced && l.in_flight != 0 {
                out.push(format!(
                    "layer '{}': {} request(s) still marked in flight at quiesce",
                    l.spec.name, l.in_flight
                ));
            }
            let _ = i;
        }
        if quiesced && !self.req_layer.is_empty() {
            out.push(format!(
                "{} request→layer route(s) never completed",
                self.req_layer.len()
            ));
        }
        if quiesced && (!self.cap_held.is_empty() || !self.dirty_held.is_empty()) {
            out.push(format!(
                "{} writer(s) still gate-held at quiesce",
                self.cap_held.len() + self.dirty_held.len()
            ));
        }
        if quiesced && !self.boost_held.is_empty() {
            out.push(format!(
                "{} writer(s) still boost-held at quiesce (no fsync in flight)",
                self.boost_held.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_layers;
    use sim_block::{BlockDeadline, Cfq, Noop};
    use split_core::{BlockOnly, SchedCmd};

    fn resolver() -> impl FnMut(&str) -> Option<Box<dyn IoSched>> {
        |name: &str| -> Option<Box<dyn IoSched>> {
            match name {
                "noop" => Some(Box::new(BlockOnly::new(Noop::new()))),
                "cfq" => Some(Box::new(BlockOnly::new(Cfq::new()))),
                "block-deadline" => Some(Box::new(BlockOnly::new(BlockDeadline::new()))),
                _ => None,
            }
        }
    }

    #[test]
    fn build_rejects_unknown_child() {
        let specs = parse_layers("a:default:share:warp-drive").unwrap();
        let err = Layered::build(specs, LayeredConfig::default(), &mut resolver());
        assert!(matches!(err, Err(SpecError::UnknownChild(c)) if c == "warp-drive"));
    }

    #[test]
    fn single_layer_forwards_to_its_child() {
        let mut l = Layered::single(Box::new(BlockOnly::new(Noop::new())));
        assert_eq!(Scheduler::name(&l), "layered");
        assert_eq!(l.layers.len(), 1);
        assert!(l.layers[0].bucket.is_none() && !l.has_latency);
        assert_eq!(l.report.shares[0], 1.0, "the one layer owns every slot");
        assert_eq!(l.classify_pid(Pid(7)), 0);
        assert_eq!(Scheduler::queued(&l), 0);
        assert!(Scheduler::audit(&l, true).is_empty());
    }

    #[test]
    fn multi_layer_tree_classifies_and_reports() {
        let specs = parse_layers(
            "lat:pidmod=3,1:latency:block-deadline;\
             cap:pidmod=3,2:cap=4194304:cfq;\
             rest:default:share+weight=2:noop",
        )
        .unwrap();
        let mut l = Layered::build(specs, LayeredConfig::default(), &mut resolver()).unwrap();
        let names: Vec<&str> = l.layers.iter().map(|l| l.spec.name.as_str()).collect();
        assert_eq!(names, vec!["lat", "cap", "rest"]);
        assert_eq!(l.classify_pid(Pid(1)), 0);
        assert_eq!(l.classify_pid(Pid(2)), 1);
        assert_eq!(l.classify_pid(Pid(3)), 2);
        // Classification is sticky.
        assert_eq!(l.classify_pid(Pid(1)), 0);
        // Cap 4 MB/s on a 128 MB/s hint ≈ 3% share: the solver clips the
        // cap layer's weighted entitlement and reports it.
        assert!(!l.feasibility().feasible());
    }

    #[test]
    fn bucket_refills_and_bounds() {
        let mut b = Bucket::new(1_000_000);
        assert!(b.affordable(1_000_000));
        b.charge(1_000_000);
        assert!(!b.affordable(1));
        b.refill(SimTime::from_nanos(500_000_000));
        assert!(b.affordable(500_000));
        assert!(!b.affordable(600_000));
        let at = b.ready_at(SimTime::from_nanos(500_000_000), 1_000_000);
        assert!(at > SimTime::from_nanos(500_000_000));
        b.refill(SimTime::from_nanos(10_000_000_000));
        assert!((b.balance - b.burst).abs() < 1.0);
    }

    /// One page a child took: file, page, block, new bytes, and whether
    /// a command was already queued when the child saw it.
    type Seen = (FileId, u64, Option<u64>, u64, bool);

    /// A child that logs the pages it takes and, like Split-Deadline,
    /// ends a stretch early on a page that queues a command (here every
    /// page whose number ends in 999 arms a timer).
    struct Recorder(std::rc::Rc<std::cell::RefCell<Vec<Seen>>>);

    impl Scheduler for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
            ev.each_page(ctx, |p, ctx| {
                let block = p.block.map(|b| b.raw());
                let seen = (p.file, p.page, block, p.new_bytes, ctx.has_commands());
                self.0.borrow_mut().push(seen);
                if p.page % 1000 == 999 {
                    ctx.set_timer(SimTime::from_nanos(p.page));
                }
            })
        }
        fn block_add(&mut self, _req: Request, _ctx: &mut SchedCtx<'_>) {}
        fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
            Dispatch::Idle
        }
        fn queued(&self) -> usize {
            0
        }
    }

    /// A latency layer (pids ≡ 1 mod 3) over a bulk one, both recorders
    /// logging into the returned log.
    fn recorded_tree() -> (Layered, std::rc::Rc<std::cell::RefCell<Vec<Seen>>>) {
        let log = std::rc::Rc::default();
        let specs = parse_layers("lat:pidmod=3,1:latency:rec;bulk:default:share:rec").unwrap();
        let mut resolve = |_: &str| -> Option<Box<dyn IoSched>> {
            Some(Box::new(Recorder(std::rc::Rc::clone(&log))))
        };
        let l = Layered::build(specs, LayeredConfig::default(), &mut resolve).unwrap();
        (l, log)
    }

    /// How the arbiter took a dirty message before it took stretches
    /// whole, kept as the reference: page by page, each page's bytes
    /// counted and the threshold checked before the child sees it.
    fn dirty_page_by_page(l: &mut Layered, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        let i = l.layer_of_causes(ev.causes);
        ev.each_page(ctx, |ev, ctx| {
            l.layers[i].dirty_bytes += ev.new_bytes;
            if let Some(threshold) = l.cfg.eager_wb_bytes {
                if l.has_latency
                    && !l.layers[i].latency_prio()
                    && l.layers[i].dirty_bytes >= threshold
                {
                    if l.fsync_boost > 0 {
                        if !l.wb_deferred.iter().any(|(f, _)| *f == ev.file) {
                            l.wb_deferred.push((ev.file, i));
                        }
                    } else {
                        let pages = l.layers[i].dirty_bytes / PAGE_SIZE + 1;
                        ctx.start_writeback(Some(ev.file), pages);
                    }
                }
            }
            let taken = &mut 1;
            l.layers[i]
                .child
                .on(Hook::BufferDirtied { ev: *ev, taken }, ctx)
        })
    }

    /// The arbiter's dirty message as the kernel sends it.
    fn dirty_whole(l: &mut Layered, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        let mut taken = ev.len;
        let msg = Hook::BufferDirtied {
            ev: *ev,
            taken: &mut taken,
        };
        IoSched::on(l, msg, ctx);
        taken
    }

    /// Dirty `ev` as the kernel does, through `dirty`: message after
    /// message until every page is taken. Returns, for each message that
    /// queued commands, the pages taken so far and the commands.
    fn drive(
        l: &mut Layered,
        ev: &BufferDirtied<'_>,
        dirty: fn(&mut Layered, &BufferDirtied<'_>, &mut SchedCtx<'_>) -> u64,
        dev: &dyn sim_device::DiskModel,
    ) -> Vec<(u64, Vec<SchedCmd>)> {
        let mut out = Vec::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, dev);
        let mut page = 0;
        while page < ev.len {
            let len = ev.len - page;
            let taken = dirty(l, &ev.sub(page, len), &mut ctx);
            assert!((1..=len).contains(&taken), "took {taken} of {len}");
            page += taken;
            if ctx.has_commands() {
                out.push((page, ctx.drain()));
            }
        }
        out
    }

    #[test]
    fn eager_writeback_cuts_a_stretch_at_the_crossing_page() {
        let dev = sim_device::HddModel::new();
        let causes = sim_core::CauseSet::of(Pid(2));
        let stretch = |page| BufferDirtied {
            file: FileId(5),
            page,
            len: 100,
            causes: &causes,
            prev: None,
            block: None,
            new_bytes: PAGE_SIZE,
        };
        let kick = |max_pages| SchedCmd::StartWriteback {
            file: Some(FileId(5)),
            max_pages,
        };
        // The default threshold is 64 pages: the 64th page crosses it.
        // The child takes the 63 pages before it as one stretch, then
        // sees the crossing page with the kick already queued.
        let (mut l, log) = recorded_tree();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        assert_eq!(dirty_whole(&mut l, &stretch(1000), &mut ctx), 64);
        assert_eq!(ctx.drain(), [kick(65)]);
        let pending: Vec<bool> = log.borrow().iter().map(|s| s.4).collect();
        assert_eq!(pending, [vec![false; 63], vec![true]].concat());
        assert_eq!(log.borrow()[63], (FileId(5), 1063, None, PAGE_SIZE, true));
        assert_eq!(l.layers[1].dirty_bytes, 64 * PAGE_SIZE);

        // When the child's own command lands on the page before the
        // crossing (page 999 arms its timer), the message ends there and
        // the kick waits for the next one.
        let (mut l, log) = recorded_tree();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        assert_eq!(dirty_whole(&mut l, &stretch(937), &mut ctx), 63);
        assert_eq!(ctx.drain(), [SchedCmd::Timer(SimTime::from_nanos(999))]);
        assert_eq!(dirty_whole(&mut l, &stretch(1000), &mut ctx), 1);
        assert_eq!(ctx.drain(), [kick(65)]);
        assert_eq!(log.borrow().len(), 64);
    }

    #[test]
    fn whole_stretches_cross_the_threshold_exactly_as_their_pages() {
        use sim_core::{CauseSet, SimRng};
        let dev = sim_device::HddModel::new();
        let fsync = |pid| SyscallInfo {
            pid: Pid(pid),
            kind: SyscallKind::Fsync { file: FileId(9) },
            ioprio: Default::default(),
            cached: None,
        };
        let (mut mid_kicks, mut mid_deferrals) = (0, 0);
        for seed in 0..6 {
            let (mut whole, whole_log) = recorded_tree();
            let (mut paged, paged_log) = recorded_tree();
            let mut rng = SimRng::seed_from_u64(seed);
            for step in 0..300 {
                let at = format!("seed {seed} step {step}");
                let mut both = |f: &mut dyn FnMut(&mut Layered) -> Vec<SchedCmd>| {
                    assert_eq!(f(&mut whole), f(&mut paged), "{at}");
                };
                match rng.gen_range(10) {
                    // A latency-layer fsync opens or closes the boost window.
                    0 => both(&mut |l| {
                        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
                        if l.fsync_boost == 0 {
                            let mut gate = Gate::Proceed;
                            let sc = fsync(1);
                            IoSched::on(
                                l,
                                Hook::SyscallEnter {
                                    sc: &sc,
                                    gate: &mut gate,
                                },
                                &mut ctx,
                            );
                        } else {
                            IoSched::on(l, Hook::SyscallExit(&fsync(1)), &mut ctx);
                        }
                        ctx.drain()
                    }),
                    // Writeback cleans some or all of the bulk layer's pages.
                    1..=3 => {
                        let ev = BufferFreed {
                            file: FileId(1),
                            page: 0,
                            causes: CauseSet::of(Pid(2)),
                            bytes: rng.gen_range(2000) * PAGE_SIZE,
                        };
                        both(&mut |l| {
                            let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
                            IoSched::on(l, Hook::BufferFreed(&ev), &mut ctx);
                            ctx.drain()
                        });
                    }
                    _ => {
                        let pid = [1, 2, 3][rng.gen_range(3) as usize];
                        let causes = CauseSet::of(Pid(pid));
                        let new_bytes = match rng.gen_range(4) {
                            0 => 0,
                            1 => 1 + rng.gen_range(PAGE_SIZE - 1),
                            _ => PAGE_SIZE,
                        };
                        let ev = BufferDirtied {
                            file: FileId(1 + rng.gen_range(3)),
                            page: rng.gen_range(10_000),
                            len: 1 + rng.gen_range(512),
                            causes: &causes,
                            prev: (new_bytes == 0).then_some(&causes),
                            block: rng.gen_bool(0.5).then_some(sim_core::BlockNo(77)),
                            new_bytes,
                        };
                        let deferred = whole.wb_deferred.len();
                        let kicks = drive(&mut whole, &ev, dirty_whole, &dev);
                        let reference = drive(&mut paged, &ev, dirty_page_by_page, &dev);
                        assert_eq!(kicks, reference, "{at}");
                        mid_kicks += kicks.first().is_some_and(|&(p, _)| p > 1) as u32;
                        mid_deferrals += (whole.wb_deferred.len() > deferred && ev.len > 1) as u32;
                    }
                }
                assert_eq!(*whole_log.borrow(), *paged_log.borrow(), "{at}");
                let dirty =
                    |l: &Layered| l.layers.iter().map(|l| l.dirty_bytes).collect::<Vec<_>>();
                assert_eq!(dirty(&whole), dirty(&paged), "{at}");
                assert_eq!(whole.wb_deferred, paged.wb_deferred, "{at}");
            }
        }
        assert!(
            mid_kicks > 50 && mid_deferrals > 50,
            "{mid_kicks} {mid_deferrals}"
        );
    }
}
