//! CI's `runner check` smoke shapes, in-process, so the tier-1 command
//! (`cargo test -q` at the root) cannot be green over a red `runner
//! check`: 50 generated programs through every scheduler on both
//! devices, at the default queue depth 1 and at depth 8, each plain and
//! under the chaos plane (seed 1). See `.github/workflows/ci.yml`.

use sim_fault::ChaosConfig;
use sim_sweep::{run_check, CheckConfig};

fn assert_clean(cfg: CheckConfig) {
    let report = run_check(&cfg);
    assert!(
        report.failures.is_empty(),
        "{}",
        report.render(cfg.root_seed)
    );
}

#[test]
fn fifty_programs_check_clean_at_the_default_depth() {
    assert_clean(CheckConfig::default());
}

#[test]
fn fifty_programs_check_clean_at_the_default_depth_under_chaos() {
    assert_clean(CheckConfig {
        chaos: Some(ChaosConfig::with_seed(1)),
        ..CheckConfig::default()
    });
}

#[test]
fn fifty_programs_check_clean_at_queue_depth_8() {
    assert_clean(CheckConfig {
        queue_depth: 8,
        ..CheckConfig::default()
    });
}

#[test]
fn fifty_programs_check_clean_at_queue_depth_8_under_chaos() {
    assert_clean(CheckConfig {
        queue_depth: 8,
        chaos: Some(ChaosConfig::with_seed(1)),
        ..CheckConfig::default()
    });
}
