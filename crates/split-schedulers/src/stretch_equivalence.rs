//! Split-Token and AFQ take a freshly dirtied stretch whole. Their
//! answer must be byte-identical to taking the same pages as one-page
//! stretches, the way the kernel delivered them before: every bucket
//! balance, prompt-charge account and pass compared as `f64` bits, the
//! same replies and commands, and with tracing on the same per-page
//! `sched.tokens` gauge series.

use sim_block::IoPrio;
use sim_core::{BlockNo, CauseSet, FileId, Pid, SimDuration, SimRng, SimTime, PAGE_SIZE};
use sim_device::{DiskModel, HddModel, SsdModel};
use sim_trace::Tracer;
use split_core::{BufferDirtied, BufferFreed, Hook, IoSched, SchedAttr, SchedCmd, SchedCtx};

use crate::{Afq, SplitToken};

/// A scheduler under test and its trace.
struct Arm<S> {
    sched: S,
    tracer: Tracer,
}

impl<S: IoSched> Arm<S> {
    fn new(sched: S, traced: bool, dev: &dyn DiskModel) -> Self {
        let tracer = Tracer::new();
        tracer.set_enabled(traced);
        let mut arm = Arm { sched, tracer };
        let mut ctx = arm.ctx(SimTime::ZERO, dev);
        // Pids 2 and 3 share one group bucket; pid 4 is unthrottled.
        for (pid, attr) in [
            (2, SchedAttr::TokenGroup(9)),
            (3, SchedAttr::TokenGroup(9)),
            (1, SchedAttr::TokenRate(3_000_000)),
            (2, SchedAttr::TokenRate(5_000_000)),
            (1, SchedAttr::Prio(IoPrio::best_effort(0))),
            (2, SchedAttr::Prio(IoPrio::best_effort(5))),
            (3, SchedAttr::Prio(IoPrio::best_effort(7))),
        ] {
            arm.sched.on(
                Hook::Configure {
                    pid: Pid(pid),
                    attr,
                },
                &mut ctx,
            );
        }
        arm
    }

    fn ctx<'a>(&self, now: SimTime, dev: &'a dyn DiskModel) -> SchedCtx<'a> {
        SchedCtx::traced(now, dev, self.tracer.clone())
    }

    /// Send one dirty message; returns the reply.
    fn send(&mut self, ev: BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        let mut taken = ev.len;
        self.sched.on(
            Hook::BufferDirtied {
                ev,
                taken: &mut taken,
            },
            ctx,
        );
        taken
    }

    /// Every gauge series, values as bits.
    fn gauges(&self) -> Vec<(String, Vec<(SimTime, u64)>)> {
        self.tracer.with_registry(|r| {
            r.gauges()
                .map(|(name, series)| {
                    let bits = series.iter().map(|&(t, v)| (t, v.to_bits())).collect();
                    (name.to_string(), bits)
                })
                .collect()
        })
    }
}

/// A random stretch's shape: file, first page, length, new bytes per page.
fn stretch(rng: &mut SimRng, next_page: &mut [u64; 3]) -> (usize, u64, u64, u64) {
    let f = rng.gen_range(3) as usize;
    // Half continue the file's last stretch (a sequential first page
    // when pages are full), half land at random.
    let page = if rng.gen_bool(0.5) {
        next_page[f]
    } else {
        rng.gen_range(100_000)
    };
    let len = match rng.gen_range(4) {
        0 => 1,
        _ => 1 + rng.gen_range(512),
    };
    let new_bytes = match rng.gen_range(8) {
        0 => 0, // an overwrite
        1..=4 => PAGE_SIZE,
        _ => 1 + rng.gen_range(PAGE_SIZE - 1),
    };
    next_page[f] = page + len;
    (f, page, len, new_bytes)
}

/// One to three distinct causes from pids 1..=4.
fn causes(rng: &mut SimRng) -> CauseSet {
    let mut pids: Vec<Pid> = (1..=4).map(Pid).collect();
    let n = 1 + rng.gen_range(3) as usize;
    let mut picked = Vec::new();
    for _ in 0..n {
        picked.push(pids.remove(rng.gen_range(pids.len() as u64) as usize));
    }
    CauseSet::from_pids(picked)
}

/// Drive `build()`'s scheduler with random stretches taken whole and,
/// as the reference, page by page; `ledger` renders its charge state.
/// Returns how many stretches had two causes sharing a group bucket, and
/// how many gauge series the traced runs compared.
fn compare<S: IoSched>(build: fn() -> S, ledger: fn(&S) -> String) -> (u32, usize) {
    let devices: [Box<dyn DiskModel>; 2] = [Box::new(HddModel::new()), Box::new(SsdModel::new())];
    let (mut group_stretches, mut series) = (0, 0);
    for seed in 0..3 {
        for dev in &devices {
            let dev = dev.as_ref();
            for traced in [false, true] {
                let mut whole = Arm::new(build(), traced, dev);
                let mut paged = Arm::new(build(), traced, dev);
                let mut rng = SimRng::seed_from_u64(seed);
                let mut next_page = [0; 3];
                let mut now = SimTime::ZERO;
                for step in 0..120 {
                    let at = format!("seed {seed} step {step} traced {traced}");
                    let (f, page, len, new_bytes) = stretch(&mut rng, &mut next_page);
                    let causes = causes(&mut rng);
                    group_stretches += (causes.contains(Pid(2)) && causes.contains(Pid(3))) as u32;
                    let ev = BufferDirtied {
                        file: FileId(f as u64 + 1),
                        page,
                        len,
                        causes: &causes,
                        prev: (new_bytes == 0).then_some(&causes),
                        block: rng.gen_bool(0.5).then_some(BlockNo(page + 7)),
                        new_bytes,
                    };
                    let mut ctx = whole.ctx(now, dev);
                    assert_eq!(whole.send(ev, &mut ctx), len, "{at}");
                    let cmds: Vec<SchedCmd> = ctx.drain();
                    let mut ctx = paged.ctx(now, dev);
                    for i in 0..len {
                        assert_eq!(paged.send(ev.sub(i, 1), &mut ctx), 1, "{at}");
                    }
                    assert_eq!(cmds, ctx.drain(), "{at}");
                    assert_eq!(ledger(&whole.sched), ledger(&paged.sched), "{at}");
                    assert_eq!(whole.gauges(), paged.gauges(), "{at}");
                    // Dropped buffers refund their share of a file's
                    // estimate, so later sums are not of whole numbers.
                    if rng.gen_bool(0.3) {
                        let freed = BufferFreed {
                            file: FileId(1 + rng.gen_range(3)),
                            page: 0,
                            causes,
                            bytes: (1 + rng.gen_range(64)) * PAGE_SIZE,
                        };
                        for arm in [&mut whole.sched, &mut paged.sched] {
                            arm.on(Hook::BufferFreed(&freed), &mut SchedCtx::new(now, dev));
                        }
                    }
                    now += SimDuration::from_micros(rng.gen_range(40_000));
                }
                series += paged.gauges().len();
            }
        }
    }
    (group_stretches, series)
}

#[test]
fn split_token_charges_a_whole_stretch_exactly_as_its_pages() {
    let (grouped, series) = compare(SplitToken::new, SplitToken::prompt_ledger);
    assert!(grouped > 50, "two pids of one group drew on one bucket");
    assert!(series > 0, "the sched.tokens gauges were compared");
}

#[test]
fn afq_charges_a_whole_stretch_exactly_as_its_pages() {
    compare(Afq::new, |a| format!("{:?}", a.pass_ledger()));
}
