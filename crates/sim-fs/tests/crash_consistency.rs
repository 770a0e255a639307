//! Crash-consistency property sweep: power-cut the ordered-mode journal
//! at *every* protocol step of a multi-transaction workload and assert
//! that replay restores a consistent image each time.
//!
//! The harness ([`CrashHarness`]) mirrors every write the file system
//! submits into a `DiskImage` shadow; cutting power marks in-flight
//! writes lost (or torn), replay recovers committed transactions in
//! order, and the checker enforces the paper's ordered-mode guarantees:
//! acknowledged transactions durable, no metadata pointing at stale data,
//! nothing recovered from a torn log.

use sim_fs::CrashHarness;

/// Builds a fresh harness on one journaled fs flavour.
type Flavour = fn() -> CrashHarness;

/// The crash-point count of a reference (uninterrupted) run.
fn reference_completions(flavour: Flavour) -> usize {
    let mut h = flavour();
    let n = h.run(None);
    assert!(
        h.workload_issued(),
        "workload must finish all three transactions"
    );
    assert!(h.acked.len() >= 3, "three commits acked, got {:?}", h.acked);
    n
}

fn sweep(flavour: Flavour, torn_prefix: Option<u64>) {
    let total = reference_completions(flavour);
    assert!(
        total >= 10,
        "sweep needs protocol steps to cut, got {total}"
    );
    let mut saw_empty_recovery = false;
    let mut saw_full_recovery = false;
    for k in 0..=total {
        let mut h = flavour();
        h.run(Some(k));
        let recovered = {
            h.image.crash(torn_prefix);
            h.image.recover().recovered.len()
        };
        saw_empty_recovery |= recovered == 0;
        saw_full_recovery |= recovered >= 3;
        let violations = h.image.check(&h.acked);
        assert!(
            violations.is_empty(),
            "crash after {k}/{total} completions (torn={torn_prefix:?}) broke \
             ordered-mode guarantees: {violations:?}"
        );
    }
    assert!(
        saw_empty_recovery,
        "early crash points must recover nothing"
    );
    assert!(
        saw_full_recovery,
        "the final crash point must recover every transaction"
    );
}

#[test]
fn ext4_survives_power_cut_at_every_protocol_step() {
    sweep(CrashHarness::ext4, None);
}

#[test]
fn ext4_survives_torn_in_flight_writes_at_every_step() {
    // Tear every in-flight write down to one durable block: multi-block
    // log bodies become torn (must not replay), while the single-block
    // commit record stays atomic, exactly as on real media.
    sweep(CrashHarness::ext4, Some(1));
}

#[test]
fn xfs_survives_power_cut_at_every_protocol_step() {
    sweep(CrashHarness::xfs, None);
}

#[test]
fn acked_transactions_survive_an_immediate_crash() {
    let mut h = CrashHarness::ext4();
    h.run(None);
    let acked = h.acked.clone();
    assert!(!acked.is_empty());
    h.image.crash(None);
    let violations = h.image.check(&acked);
    assert!(violations.is_empty(), "{violations:?}");
    let recovery = h.image.recover();
    for txn in acked {
        assert!(recovery.contains(txn), "acked {txn:?} must replay");
    }
}
