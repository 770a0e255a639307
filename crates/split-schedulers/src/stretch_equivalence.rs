//! Split-Token and AFQ take a freshly dirtied stretch whole. Their
//! answer must be byte-identical to taking the same pages as one-page
//! stretches, the way the kernel delivered them before: every bucket
//! balance, prompt-charge account and pass compared as `f64` bits, and
//! the same replies and commands. (Gauges are sampled once per stretch,
//! so they are not compared page by page.)

use sim_block::IoPrio;
use sim_core::{BlockNo, CauseSet, FileId, Pid, SimDuration, SimRng, SimTime, PAGE_SIZE};
use sim_device::{DiskModel, HddModel, SsdModel};
use split_core::{BufferDirtied, BufferFreed, Hook, IoSched, SchedAttr, SchedCmd, SchedCtx};

use crate::{Afq, SplitToken};

/// A scheduler under test, configured: pids 2 and 3 share one group
/// bucket; pid 4 is unthrottled.
fn configured<S: IoSched>(mut sched: S, dev: &dyn DiskModel) -> S {
    let mut ctx = SchedCtx::new(SimTime::ZERO, dev);
    for (pid, attr) in [
        (2, SchedAttr::TokenGroup(9)),
        (3, SchedAttr::TokenGroup(9)),
        (1, SchedAttr::TokenRate(3_000_000)),
        (2, SchedAttr::TokenRate(5_000_000)),
        (1, SchedAttr::Prio(IoPrio::best_effort(0))),
        (2, SchedAttr::Prio(IoPrio::best_effort(5))),
        (3, SchedAttr::Prio(IoPrio::best_effort(7))),
    ] {
        sched.on(
            Hook::Configure {
                pid: Pid(pid),
                attr,
            },
            &mut ctx,
        );
    }
    sched
}

/// Send one dirty message; returns the reply.
fn send(sched: &mut dyn IoSched, ev: BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
    let mut taken = ev.len;
    sched.on(
        Hook::BufferDirtied {
            ev,
            taken: &mut taken,
        },
        ctx,
    );
    taken
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
/// Returns how many stretches had two causes sharing a group bucket.
fn compare<S: IoSched>(build: fn() -> S, ledger: fn(&S) -> String) -> u32 {
    let devices: [Box<dyn DiskModel>; 2] = [Box::new(HddModel::new()), Box::new(SsdModel::new())];
    let mut group_stretches = 0;
    for seed in 0..3 {
        for dev in &devices {
            let dev = dev.as_ref();
            let mut whole = configured(build(), dev);
            let mut paged = configured(build(), dev);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut next_page = [0; 3];
            let mut now = SimTime::ZERO;
            for step in 0..120 {
                let at = format!("seed {seed} step {step}");
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
                let mut ctx = SchedCtx::new(now, dev);
                assert_eq!(send(&mut whole, ev, &mut ctx), len, "{at}");
                let cmds: Vec<SchedCmd> = ctx.drain();
                let mut ctx = SchedCtx::new(now, dev);
                for i in 0..len {
                    assert_eq!(send(&mut paged, ev.sub(i, 1), &mut ctx), 1, "{at}");
                }
                assert_eq!(cmds, ctx.drain(), "{at}");
                assert_eq!(ledger(&whole), ledger(&paged), "{at}");
                // Dropped buffers refund their share of a file's
                // estimate, so later sums are not of whole numbers.
                if rng.gen_bool(0.3) {
                    let freed = BufferFreed {
                        file: FileId(1 + rng.gen_range(3)),
                        page: 0,
                        causes,
                        bytes: (1 + rng.gen_range(64)) * PAGE_SIZE,
                    };
                    for sched in [&mut whole, &mut paged] {
                        sched.on(Hook::BufferFreed(&freed), &mut SchedCtx::new(now, dev));
                    }
                }
                now += SimDuration::from_micros(rng.gen_range(40_000));
            }
        }
    }
    group_stretches
}

#[test]
fn split_token_charges_a_whole_stretch_exactly_as_its_pages() {
    let grouped = compare(SplitToken::new, SplitToken::prompt_ledger);
    assert!(grouped > 50, "two pids of one group drew on one bucket");
}

#[test]
fn afq_charges_a_whole_stretch_exactly_as_its_pages() {
    compare(Afq::new, |a| format!("{:?}", a.pass_ledger()));
}
