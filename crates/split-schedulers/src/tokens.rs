//! Token buckets shared by [`crate::SplitToken`] and [`crate::ScsToken`].
//!
//! Tokens are *normalized bytes* (sequential-equivalent). A bucket refills
//! at a fixed rate, is capped, and may go negative — negative balance is
//! debt that blocks further gated work until refill pays it off.
//!
//! The registry also owns the *waiter set*: the pids a scheduler is
//! holding at the syscall gate, in hold order, plus a count of waiters per
//! distinct bucket. A wake-up pass refills each bucket that has waiters
//! once, not once per waiter — see [`TokenBuckets::release_ready`].

use std::collections::{BTreeMap, HashMap};

use sim_core::{Pid, SimDuration, SimTime};
use sim_trace::Tracer;

/// Identifies a bucket: by default each pid has its own; pids may be
/// joined into shared group buckets (VM instances, HDFS accounts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum BucketId {
    /// A per-process bucket.
    Proc(Pid),
    /// A shared group bucket.
    Group(u32),
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    rate: f64, // bytes per second
    cap: f64,
    last_refill: SimTime,
}

impl Bucket {
    fn refill(&mut self, now: SimTime) {
        #[cfg(test)]
        tests::REFILLS.with(|n| n.set(n.get() + 1));
        let dt = now.since(self.last_refill).as_secs_f64();
        // Never backwards: the token schedulers' `configure` passes
        // `SimTime::ZERO`, which must not make the next refill credit the
        // whole elapsed run a second time.
        self.last_refill = self.last_refill.max(now);
        self.tokens = (self.tokens + dt * self.rate).min(self.cap);
    }

    /// Out of debt: gated work charged to this bucket may proceed.
    fn ready(&self) -> bool {
        self.tokens >= 0.0
    }
}

/// All buckets, the pid → bucket mapping, and the gate's waiter set.
#[derive(Debug, Default)]
pub(crate) struct TokenBuckets {
    buckets: HashMap<BucketId, Bucket>,
    groups: HashMap<Pid, u32>,
    /// Pids held at the gate, in hold order (which is wake order).
    held: Vec<Pid>,
    /// How many entries of `held` draw from each bucket; no zero counts.
    waiting: BTreeMap<BucketId, usize>,
}

fn bucket_in(groups: &HashMap<Pid, u32>, pid: Pid) -> BucketId {
    groups
        .get(&pid)
        .map_or(BucketId::Proc(pid), |&g| BucketId::Group(g))
}

impl TokenBuckets {
    /// Empty registry; unknown pids are unthrottled.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Which bucket `pid` draws from.
    pub(crate) fn bucket_of(&self, pid: Pid) -> BucketId {
        bucket_in(&self.groups, pid)
    }

    /// Throttle `pid` (or its group) to `rate` bytes/second. Creates the
    /// bucket if needed; the default cap is one second of rate.
    pub(crate) fn set_rate(&mut self, pid: Pid, rate: u64, now: SimTime) {
        let id = self.bucket_of(pid);
        let fresh = !self.buckets.contains_key(&id);
        let b = self.buckets.entry(id).or_insert(Bucket {
            tokens: 0.0,
            rate: 0.0,
            cap: 0.0,
            last_refill: now,
        });
        b.refill(now);
        b.rate = rate as f64;
        if b.cap == 0.0 {
            b.cap = rate as f64;
        }
        if fresh {
            // A new bucket starts full (classic token-bucket semantics).
            b.tokens = b.cap;
        }
    }

    /// Set the cap on `pid`'s bucket.
    pub(crate) fn set_cap(&mut self, pid: Pid, cap: u64, now: SimTime) {
        let id = self.bucket_of(pid);
        if let Some(b) = self.buckets.get_mut(&id) {
            b.refill(now);
            b.cap = cap as f64;
            b.tokens = b.tokens.min(b.cap);
        }
    }

    /// Join `pid` to group `g`. The group bucket must then be configured
    /// via `set_rate` on any member.
    pub(crate) fn join_group(&mut self, pid: Pid, g: u32) {
        self.groups.insert(pid, g);
        self.rebound(pid);
    }

    /// Remove any throttle from `pid`'s bucket binding.
    pub(crate) fn unthrottle(&mut self, pid: Pid) {
        self.buckets.remove(&self.bucket_of(pid));
        self.groups.remove(&pid);
        self.rebound(pid);
    }

    /// `pid` now draws from another bucket: if it is parked, it waits on
    /// that one (rare and O(held), so the summary is simply recounted).
    fn rebound(&mut self, pid: Pid) {
        if self.held.contains(&pid) {
            self.waiting = self.count_waiters();
        }
    }

    /// The waiter summary `held` implies.
    fn count_waiters(&self) -> BTreeMap<BucketId, usize> {
        let mut waiting = BTreeMap::new();
        for &pid in &self.held {
            *waiting.entry(self.bucket_of(pid)).or_insert(0) += 1;
        }
        waiting
    }

    /// Charge `cost` normalized bytes to `pid`'s bucket (no-op when
    /// unthrottled). Balance may go negative.
    pub(crate) fn charge(&mut self, pid: Pid, cost: f64, now: SimTime) {
        let id = self.bucket_of(pid);
        if let Some(b) = self.buckets.get_mut(&id) {
            b.refill(now);
            b.tokens -= cost;
        }
    }

    /// Refund `cost` (revision in the caller's favour).
    pub(crate) fn refund(&mut self, pid: Pid, cost: f64, now: SimTime) {
        let id = self.bucket_of(pid);
        if let Some(b) = self.buckets.get_mut(&id) {
            b.refill(now);
            b.tokens = (b.tokens + cost).min(b.cap);
        }
    }

    /// Current balance (after refill); `None` when unthrottled.
    pub(crate) fn balance(&mut self, pid: Pid, now: SimTime) -> Option<f64> {
        let id = self.bucket_of(pid);
        let b = self.buckets.get_mut(&id)?;
        b.refill(now);
        Some(b.tokens)
    }

    /// Whether `pid` may proceed (unthrottled or non-negative balance).
    pub(crate) fn may_proceed(&mut self, pid: Pid, now: SimTime) -> bool {
        self.balance(pid, now).is_none_or(|t| t >= 0.0)
    }

    /// Park `pid` behind its bucket: the scheduler answered `Gate::Hold`.
    pub(crate) fn hold(&mut self, pid: Pid) {
        self.held.push(pid);
        *self.waiting.entry(self.bucket_of(pid)).or_insert(0) += 1;
    }

    /// Whether any pid is parked.
    pub(crate) fn any_held(&self) -> bool {
        !self.held.is_empty()
    }

    /// Hand every parked pid that may now proceed to `wake`, in hold
    /// order, and forget it.
    ///
    /// Each distinct bucket with waiters is refilled exactly once, at
    /// `now`, whether or not anyone wakes: refill accumulates in `f64`, so
    /// *when* it is called is part of the simulated result, and one call
    /// per waiting bucket is what a refill per waiter amounts to (every
    /// call after the first sees `dt = 0`). The waiters are then walked in
    /// place, each tested against its own bucket.
    pub(crate) fn release_ready(&mut self, now: SimTime, mut wake: impl FnMut(Pid)) {
        // A bucket removed while pids waited on it throttles nobody.
        self.waiting.retain(|id, _| {
            self.buckets.get_mut(id).is_some_and(|b| {
                b.refill(now);
                !b.ready()
            })
        });
        self.held.retain(|&pid| {
            let bucket = self.buckets.get(&bucket_in(&self.groups, pid));
            let stays = bucket.is_some_and(|b| !b.ready());
            if !stays {
                wake(pid);
            }
            stays
        });
    }

    /// Sample every bucket's balance into `tracer` as a `sched.tokens/<key>`
    /// gauge: per-process buckets key by pid, group buckets by `2^32 + g`
    /// (pids are 32-bit, so the ranges can't collide). No-op when tracing
    /// is off; iteration is in sorted bucket order for determinism.
    pub(crate) fn sample(&mut self, tracer: &Tracer, now: SimTime) {
        if !tracer.enabled() {
            return;
        }
        let mut ids: Vec<BucketId> = self.buckets.keys().copied().collect();
        ids.sort();
        for id in ids {
            let key = match id {
                BucketId::Proc(p) => p.raw() as u64,
                BucketId::Group(g) => (1u64 << 32) + g as u64,
            };
            let b = self.buckets.get_mut(&id).expect("bucket just listed");
            b.refill(now);
            tracer.gauge_key("sched.tokens", key, now, b.tokens);
        }
    }

    /// Check every bucket's raw ledger fields for corruption: balances,
    /// rates and caps must all be finite, and rate/cap non-negative; and
    /// check the waiter set: no pid parked twice, and the summary counting
    /// exactly the parked pids of each bucket (so its counts sum to the
    /// FIFO's length and every parked pid's bucket is in it).
    /// Reads the fields as-is (no refill), so `&self` suffices and the
    /// check itself cannot perturb the accounting it inspects.
    pub(crate) fn audit(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut ids: Vec<BucketId> = self.buckets.keys().copied().collect();
        ids.sort();
        for id in ids {
            let b = &self.buckets[&id];
            if !b.tokens.is_finite() {
                bad.push(format!("tokens: bucket {id:?} balance is {}", b.tokens));
            }
            if !b.rate.is_finite() || b.rate < 0.0 {
                bad.push(format!("tokens: bucket {id:?} rate is {}", b.rate));
            }
            if !b.cap.is_finite() || b.cap < 0.0 {
                bad.push(format!("tokens: bucket {id:?} cap is {}", b.cap));
            }
        }
        let mut pids = self.held.clone();
        pids.sort();
        for w in pids.windows(2) {
            if w[0] == w[1] {
                bad.push(format!("tokens: {:?} is held twice", w[0]));
            }
        }
        let counted = self.count_waiters();
        if self.waiting != counted {
            bad.push(format!(
                "tokens: waiter summary {:?} but the held pids are {counted:?}",
                self.waiting
            ));
        }
        bad
    }

    /// When `pid`'s bucket will next be non-negative (`None` if already,
    /// or if unthrottled, or if the rate is zero — then never).
    pub(crate) fn ready_at(&mut self, pid: Pid, now: SimTime) -> Option<SimTime> {
        let id = self.bucket_of(pid);
        let b = self.buckets.get_mut(&id)?;
        b.refill(now);
        if b.ready() {
            return None;
        }
        if b.rate <= 0.0 {
            return Some(SimTime::MAX);
        }
        let secs = -b.tokens / b.rate;
        // Round up to at least a microsecond: returning `now` itself
        // (possible when the balance is an infinitesimal negative) would
        // let a dispatch loop retry at the same instant forever.
        let wait = SimDuration::from_secs_f64(secs).max(SimDuration::from_micros(1));
        Some(now + wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    #[test]
    fn unthrottled_pids_always_proceed() {
        let mut b = TokenBuckets::new();
        assert!(b.may_proceed(Pid(1), t(0)));
        b.charge(Pid(1), 1e12, t(0));
        assert!(b.may_proceed(Pid(1), t(0)));
        assert_eq!(b.balance(Pid(1), t(0)), None);
    }

    #[test]
    fn charge_refill_cycle() {
        let mut b = TokenBuckets::new();
        b.set_rate(Pid(1), 1_000_000, t(0)); // 1 MB/s
                                             // Starts full (1 MB); charge 3 MB → 2 s of debt.
        b.charge(Pid(1), 3e6, t(0));
        assert!(!b.may_proceed(Pid(1), t(0)));
        assert_eq!(b.ready_at(Pid(1), t(0)), Some(t(2)));
        assert!(b.may_proceed(Pid(1), t(2)));
        // Accumulation is capped (default cap = 1 s of rate).
        assert!(b.balance(Pid(1), t(100)).unwrap() <= 1e6 + 1.0);
    }

    #[test]
    fn groups_share_one_bucket() {
        let mut b = TokenBuckets::new();
        b.join_group(Pid(1), 7);
        b.join_group(Pid(2), 7);
        b.set_rate(Pid(1), 1_000_000, t(0));
        b.charge(Pid(1), 5e6, t(0));
        // Pid 2 shares the debt.
        assert!(!b.may_proceed(Pid(2), t(0)));
        assert_eq!(b.bucket_of(Pid(2)), BucketId::Group(7));
    }

    #[test]
    fn refund_respects_cap() {
        let mut b = TokenBuckets::new();
        b.set_rate(Pid(1), 1_000_000, t(0));
        b.refund(Pid(1), 10e6, t(0));
        assert!(b.balance(Pid(1), t(0)).unwrap() <= 1e6 + 1.0);
    }

    #[test]
    fn unthrottle_removes_debt() {
        let mut b = TokenBuckets::new();
        b.set_rate(Pid(1), 1000, t(0));
        b.charge(Pid(1), 1e9, t(0));
        b.unthrottle(Pid(1));
        assert!(b.may_proceed(Pid(1), t(0)));
    }

    #[test]
    fn zero_rate_debt_never_clears() {
        let mut b = TokenBuckets::new();
        b.set_rate(Pid(1), 0, t(0));
        b.charge(Pid(1), 1.0, t(0));
        assert_eq!(b.ready_at(Pid(1), t(0)), Some(SimTime::MAX));
    }

    #[test]
    fn buckets_start_full() {
        let mut b = TokenBuckets::new();
        b.set_rate(Pid(1), 1_000_000, t(0));
        assert!((b.balance(Pid(1), t(0)).unwrap() - 1e6).abs() < 1.0);
    }

    #[test]
    fn reconfiguring_mid_run_does_not_rewind_the_clock() {
        let mut b = TokenBuckets::new();
        b.set_rate(Pid(1), 1_000_000, t(0));
        b.charge(Pid(1), 21e6, t(0)); // full 1 MB bucket → 20 MB of debt
        assert_eq!(b.balance(Pid(1), t(10)), Some(-10e6));
        // The token schedulers' `configure` passes ZERO. That used to
        // reset `last_refill` to 0, so the next refill paid the ten
        // elapsed seconds a second time and the debt vanished.
        b.set_rate(Pid(1), 1_000_000, SimTime::ZERO);
        b.set_cap(Pid(1), 1_000_000, SimTime::ZERO);
        assert_eq!(b.balance(Pid(1), t(10)), Some(-10e6));
    }

    thread_local! {
        /// `Bucket::refill` calls made on this thread.
        pub(super) static REFILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn refills() -> u64 {
        REFILLS.with(|n| n.get())
    }

    fn release(b: &mut TokenBuckets, now: SimTime) -> Vec<Pid> {
        let mut woke = Vec::new();
        b.release_ready(now, |p| woke.push(p));
        woke
    }

    #[test]
    fn release_costs_one_refill_per_waiting_bucket_not_per_waiter() {
        const N: u32 = 1024;
        let mut b = TokenBuckets::new();
        for i in 0..N {
            b.join_group(Pid(i), 1);
        }
        b.set_rate(Pid(0), 1_000_000, t(0));
        b.charge(Pid(0), 501e6, t(0)); // 500 s of debt
        for i in 0..N {
            b.hold(Pid(i));
        }
        let before = refills();
        assert_eq!(release(&mut b, t(1)), []);
        assert_eq!(refills() - before, 1, "one bucket has waiters");
        assert!(b.any_held());

        b.refund(Pid(0), 600e6, t(1));
        let before = refills();
        let woke = release(&mut b, t(1));
        assert_eq!(refills() - before, 1);
        assert_eq!(woke, (0..N).map(Pid).collect::<Vec<_>>(), "hold order");
        assert!(!b.any_held());
        assert_eq!(b.audit(), Vec::<String>::new());
        // Nothing waits, so nothing is refilled.
        let before = refills();
        assert_eq!(release(&mut b, t(2)), []);
        assert_eq!(refills(), before);
    }

    #[test]
    fn audit_reports_a_broken_waiter_set() {
        let mut b = TokenBuckets::new();
        b.join_group(Pid(1), 7);
        b.join_group(Pid(2), 7);
        for pid in [1, 2, 3] {
            b.hold(Pid(pid));
        }
        assert_eq!(b.audit(), Vec::<String>::new());
        // Re-binding a held pid keeps the summary true.
        b.join_group(Pid(3), 7);
        b.unthrottle(Pid(1));
        assert_eq!(b.audit(), Vec::<String>::new());

        // Counts that do not sum to the FIFO's length.
        *b.waiting.get_mut(&BucketId::Group(7)).unwrap() += 1;
        assert_eq!(
            b.audit(),
            ["tokens: waiter summary {Proc(Pid(1)): 1, Group(7): 3} \
              but the held pids are {Proc(Pid(1)): 1, Group(7): 2}"]
        );
        // A held pid whose bucket the summary does not list: `release_ready`
        // would never refill that bucket again.
        b.waiting.remove(&BucketId::Group(7));
        assert!(b.audit()[0].starts_with("tokens: waiter summary {Proc(Pid(1)): 1} but"));
        b.waiting = b.count_waiters();
        b.hold(Pid(2));
        assert_eq!(b.audit(), ["tokens: Pid(2) is held twice"]);
    }

    /// What `SplitToken::maintenance` and `ScsToken::maintenance` each did
    /// before the waiter set moved in here: their own `held` list, one
    /// `may_proceed` per held pid, survivors collected into a fresh `Vec`.
    /// Kept as the reference `release_ready` is held against.
    #[derive(Default)]
    struct PerPidLoop {
        buckets: TokenBuckets,
        held: Vec<Pid>,
    }

    impl PerPidLoop {
        fn release(&mut self, now: SimTime) -> Vec<Pid> {
            let mut woke = Vec::new();
            let mut kept = Vec::new();
            for pid in std::mem::take(&mut self.held) {
                if self.buckets.may_proceed(pid, now) {
                    woke.push(pid);
                } else {
                    kept.push(pid);
                }
            }
            self.held = kept;
            woke
        }
    }

    /// Every bucket's fields, unrefilled, as bits.
    fn raw(b: &TokenBuckets) -> Vec<(BucketId, [u64; 3], SimTime)> {
        let mut v: Vec<_> = b
            .buckets
            .iter()
            .map(|(&id, k)| {
                (
                    id,
                    [k.tokens, k.rate, k.cap].map(f64::to_bits),
                    k.last_refill,
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn waiter_set_wakes_exactly_what_the_per_pid_loop_woke() {
        use sim_core::SimRng;
        const PIDS: u64 = 12;
        for seed in 0..8 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut new = TokenBuckets::new();
            let mut old = PerPidLoop::default();
            let mut now = SimTime::ZERO;
            let (mut wakes, mut rebound_while_held) = (0, 0);
            for step in 0..20_000 {
                let pid = Pid(1 + rng.gen_range(PIDS) as u32);
                // `configure` passes ZERO; every other caller passes `now`.
                let at = if rng.gen_bool(0.5) {
                    SimTime::ZERO
                } else {
                    now
                };
                let amount = rng.gen_f64() * 3e6;
                match rng.gen_range(12) {
                    0..=2 => {
                        if !old.held.contains(&pid) {
                            new.hold(pid);
                            old.held.push(pid);
                        }
                    }
                    3 | 4 => {
                        new.charge(pid, amount, now);
                        old.buckets.charge(pid, amount, now);
                    }
                    5 => {
                        new.refund(pid, amount, now);
                        old.buckets.refund(pid, amount, now);
                    }
                    6 => {
                        let rate = rng.gen_range(4) * 500_000; // 0 = never refills
                        new.set_rate(pid, rate, at);
                        old.buckets.set_rate(pid, rate, at);
                    }
                    7 => {
                        new.set_cap(pid, amount as u64, at);
                        old.buckets.set_cap(pid, amount as u64, at);
                    }
                    8 => {
                        let g = rng.gen_range(3) as u32;
                        rebound_while_held += old.held.contains(&pid) as u32;
                        new.join_group(pid, g);
                        old.buckets.join_group(pid, g);
                    }
                    9 => {
                        rebound_while_held += old.held.contains(&pid) as u32;
                        new.unthrottle(pid);
                        old.buckets.unthrottle(pid);
                    }
                    10 => now += SimDuration::from_micros(rng.gen_range(2_000_000)),
                    _ => {
                        let woke = release(&mut new, now);
                        assert_eq!(woke, old.release(now), "seed {seed} step {step}");
                        wakes += woke.len();
                    }
                }
                assert_eq!(new.held, old.held, "seed {seed} step {step}");
                assert_eq!(raw(&new), raw(&old.buckets), "seed {seed} step {step}");
                assert_eq!(new.audit(), Vec::<String>::new(), "seed {seed} step {step}");
            }
            // The run must have exercised what it claims to compare.
            assert!(wakes > 500 && rebound_while_held > 100, "seed {seed}");
            assert!(raw(&new).len() >= 3, "seed {seed}");
        }
    }
}
