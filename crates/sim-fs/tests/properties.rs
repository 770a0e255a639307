//! Randomized tests for allocation and extent mapping: no two files
//! ever share a block, and lookups agree with range queries. Driven by
//! `SimRng` so the case set is deterministic and dependency-free.

use sim_core::rng::SimRng;
use sim_core::FileId;
use sim_fs::alloc::{Allocator, ExtentMap};

/// Blocks handed out by the allocator never overlap, across any
/// interleaving of files and sizes.
#[test]
fn allocator_never_overlaps() {
    let mut rng = SimRng::seed_from_u64(0xA110C);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(59) as usize;
        let grants: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(8), 1 + rng.gen_range(499)))
            .collect();
        let mut a = Allocator::new(0, 1 << 24, 256, 42);
        let mut used: sim_core::FastSet<u64> = Default::default();
        for (file, n) in grants {
            for (start, len) in a.alloc(FileId(file), n) {
                for b in start.raw()..start.raw() + len {
                    assert!(used.insert(b), "block {b} double-allocated");
                }
            }
        }
    }
}

/// Scattered allocation also never overlaps and covers the request.
#[test]
fn scattered_allocation_is_exact() {
    let mut rng = SimRng::seed_from_u64(0x5CA77);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(19) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range(1999)).collect();
        let mut a = Allocator::new(0, 1 << 26, 256, 7);
        let mut used: sim_core::FastSet<u64> = Default::default();
        for n in sizes {
            let runs: Vec<_> = a.alloc_scattered(n, 64).collect();
            let total: u64 = runs.iter().map(|r| r.1).sum();
            assert_eq!(total, n);
            for (start, len) in runs {
                for b in start.raw()..start.raw() + len {
                    assert!(used.insert(b));
                }
            }
        }
    }
}

/// `lookup` and `extents_for` agree page by page.
#[test]
fn extent_map_lookup_matches_ranges() {
    let mut rng = SimRng::seed_from_u64(0xE47E47);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(14) as usize;
        let inserts: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(100), 1 + rng.gen_range(19)))
            .collect();
        let query = (rng.gen_range(150), 1 + rng.gen_range(39));
        let mut m = ExtentMap::new();
        let mut next_block = 1000u64;
        let mut covered: sim_core::FastMap<u64, u64> = Default::default();
        for (page, len) in inserts {
            // Skip overlapping inserts (the fs never produces them).
            if (page..page + len).any(|p| covered.contains_key(&p)) {
                continue;
            }
            m.insert(page, sim_core::BlockNo(next_block), len);
            for (i, p) in (page..page + len).enumerate() {
                covered.insert(p, next_block + i as u64);
            }
            next_block += len + 10;
        }
        let (qp, ql) = query;
        let extents = m.extents_for(qp, ql);
        // Every page the range query covers must match lookup, and
        // vice versa.
        let mut from_ranges: sim_core::FastMap<u64, u64> = Default::default();
        for e in &extents {
            for i in 0..e.len {
                from_ranges.insert(e.page + i, e.start.raw() + i);
            }
        }
        for p in qp..qp + ql {
            assert_eq!(
                m.lookup(p).map(|b| b.raw()),
                from_ranges.get(&p).copied(),
                "disagreement at page {p}"
            );
            assert_eq!(
                m.lookup(p).map(|b| b.raw()),
                covered.get(&p).copied(),
                "model disagreement at page {p}"
            );
        }
    }
}
