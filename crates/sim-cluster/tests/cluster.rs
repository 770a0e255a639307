//! Fleet-level integration tests: output is pinned across builds and
//! proven byte-identical at any worker count, the degenerate 1-shard
//! fleet works, and the replicated-commit SLO numbers are sane.

use sim_cluster::{run_cluster, ArrivalKind, ClusterConfig, ClusterReport, ClusterSched, ReqKind};
use sim_core::{SimDuration, SimTime};

fn small_fleet(kernels: usize) -> ClusterConfig {
    ClusterConfig {
        kernels,
        duration: SimDuration::from_millis(400),
        arrival: ArrivalKind::Poisson { rate: 60.0 },
        ..Default::default()
    }
}

#[test]
fn parallel_is_byte_identical_to_sequential_on_64_kernels() {
    let cfg = small_fleet(64);
    let seq = run_cluster(&cfg, 1);
    let par = run_cluster(&cfg, 4);
    assert_eq!(
        seq.render(),
        par.render(),
        "jobs=4 must reproduce jobs=1 byte for byte"
    );
    // Beyond the rendered table: the raw sample streams must agree too.
    assert_eq!(seq.samples.len(), par.samples.len());
    for (a, b) in seq.samples.iter().zip(par.samples.iter()) {
        assert_eq!(a.req, b.req);
        assert_eq!(a.shard, b.shard);
        assert_eq!(a.done, b.done);
    }
    assert_eq!(seq.events, par.events);
    assert_eq!(seq.late, 0, "late schedule means the lookahead broke");
}

#[test]
fn worker_count_does_not_leak_into_output() {
    let cfg = small_fleet(9);
    let base = run_cluster(&cfg, 1).render();
    for jobs in [2, 3, 8, 16] {
        assert_eq!(base, run_cluster(&cfg, jobs).render(), "jobs={jobs}");
    }
}

#[test]
fn degenerate_single_shard_fleet_commits_locally() {
    let cfg = small_fleet(1);
    let report = run_cluster(&cfg, 1);
    assert_eq!(report.kernels, 1);
    assert_eq!(report.groups, 1);
    let puts: Vec<_> = report
        .samples
        .iter()
        .filter(|s| s.kind == ReqKind::Put)
        .collect();
    assert!(!puts.is_empty(), "single shard must still commit puts");
    for p in &puts {
        assert_eq!(
            p.repl_ms, 0.0,
            "quorum of one: commit is the local fsync, no replication wait"
        );
    }
}

#[test]
fn replicated_puts_wait_for_quorum() {
    let cfg = small_fleet(6);
    let report = run_cluster(&cfg, 1);
    assert_eq!(report.groups, 2);
    let puts: Vec<_> = report
        .samples
        .iter()
        .filter(|s| s.kind == ReqKind::Put)
        .collect();
    assert!(puts.len() > 10, "got {} puts", puts.len());
    // Commit is max(leader fsync, quorum ack): when the leader's own
    // fsync contends with the batch tenant it can land last (repl_ms =
    // 0), but some commits must be gated by the follower round trip.
    let rtt_ms = 2.0 * cfg.net.lookahead().as_millis_f64();
    let waited = puts.iter().filter(|p| p.repl_ms > 0.0).count();
    assert!(
        waited > 0,
        "no commit ever waited on replication across {} puts",
        puts.len()
    );
    for p in &puts {
        assert!(p.repl_ms >= 0.0);
        assert!(
            p.e2e_ms >= rtt_ms,
            "put committed faster than a network round trip: {:.3}ms",
            p.e2e_ms
        );
    }
}

#[test]
fn gets_and_puts_both_flow_and_slos_are_finite() {
    let cfg = small_fleet(3);
    let report = run_cluster(&cfg, 2);
    let gets = report
        .samples
        .iter()
        .filter(|s| s.kind == ReqKind::Get)
        .count();
    let puts = report.samples.len() - gets;
    assert!(gets > 0 && puts > 0, "gets={gets} puts={puts}");
    for tier in report.slo.tiers() {
        assert!(tier.p50.is_finite() && tier.max.is_finite(), "{tier:?}");
        assert!(tier.p50 <= tier.p99 && tier.p99 <= tier.max, "{tier:?}");
    }
    let reg = report.registry();
    assert_eq!(reg.counter("cluster.puts") as usize, puts);
    assert_eq!(reg.counter("cluster.gets") as usize, gets);
    assert_eq!(reg.counter("cluster.late_schedules"), 0);
}

#[test]
fn cfq_fleet_runs_and_stays_deterministic() {
    let cfg = ClusterConfig {
        sched: ClusterSched::Cfq,
        ..small_fleet(4)
    };
    assert_eq!(run_cluster(&cfg, 1).render(), run_cluster(&cfg, 3).render());
}

fn flash_fleet(kernels: usize) -> ClusterConfig {
    ClusterConfig {
        arrival: ArrivalKind::FlashCrowd {
            base: 40.0,
            peak: 5.0,
            start: SimTime::from_nanos(100_000_000),
            ramp: SimDuration::from_millis(50),
            hold: SimDuration::from_millis(150),
            decay: SimDuration::from_millis(50),
        },
        ..small_fleet(kernels)
    }
}

#[test]
fn flash_crowd_fleet_is_deterministic_across_jobs() {
    let cfg = flash_fleet(8);
    assert_eq!(run_cluster(&cfg, 1).render(), run_cluster(&cfg, 4).render());
}

/// One line per fleet: exact counters plus FNV-1a over every sample's
/// identity, timing and end-to-end latency bits.
fn digest_line(name: &str, r: &ClusterReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in &r.samples {
        let kind = (s.kind == ReqKind::Get) as u64;
        for word in [
            s.req,
            s.shard as u64,
            kind,
            s.arrival.as_nanos(),
            s.done.as_nanos(),
            s.e2e_ms.to_bits(),
        ] {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!(
        "{name} events={} late={} samples={} fnv={h:016x}\n",
        r.events,
        r.late,
        r.samples.len()
    )
}

#[test]
fn fleet_outputs_match_the_pinned_digests() {
    // The cross-build pin on fleet output (every other test here compares
    // a build with itself). Each fleet must give the same line at jobs 1
    // and 3. An intended change regenerates with `UPDATE_GOLDEN=1`.
    let fleets = [
        ("poisson-64", small_fleet(64)),
        ("flash-8", flash_fleet(8)),
        (
            "cfq-4",
            ClusterConfig {
                sched: ClusterSched::Cfq,
                ..small_fleet(4)
            },
        ),
        ("single-1", small_fleet(1)),
    ];
    let mut got = String::new();
    for (name, cfg) in &fleets {
        let line = digest_line(name, &run_cluster(cfg, 1));
        assert_eq!(line, digest_line(name, &run_cluster(cfg, 3)), "jobs=3");
        got.push_str(&line);
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_digests.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("pinned digests");
    assert_eq!(
        got, want,
        "fleet output drifted from tests/golden/fleet_digests.txt"
    );
}
