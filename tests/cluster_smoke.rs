//! CI's `runner cluster` seq-vs-par smoke, in-process and smaller, so the
//! tier-1 command (`cargo test -q` at the root) runs many event queues
//! side by side and on worker threads: a 9-kernel fleet in groups of 3
//! must produce the same report at `jobs` 1 and 3, with no late schedule
//! (a cross-shard delivery behind a shard's clock). See
//! `.github/workflows/ci.yml`.

use sim_cluster::{run_cluster, ClusterConfig};
use sim_core::SimDuration;

#[test]
fn nine_kernel_fleet_is_identical_at_one_and_three_jobs() {
    let cfg = ClusterConfig {
        kernels: 9,
        replication: 3,
        duration: SimDuration::from_secs(2),
        ..ClusterConfig::default()
    };
    let seq = run_cluster(&cfg, 1);
    let par = run_cluster(&cfg, 3);
    assert_eq!(seq.render(), par.render());
    assert_eq!(
        format!("{:?}", seq.samples),
        format!("{:?}", par.samples),
        "raw samples must agree, not just the rendered table"
    );
    assert!(!seq.samples.is_empty());
    assert_eq!(seq.late, 0, "a late schedule means the lookahead broke");
    assert_eq!(par.late, 0, "a late schedule means the lookahead broke");
}
