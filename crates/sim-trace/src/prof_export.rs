//! Fold a [`ProfSnapshot`](sim_core::prof::ProfSnapshot) into a
//! [`Registry`], so the self-profiler's host-side numbers travel
//! through the same export paths (summary CSV, Chrome JSON) as the
//! simulated-clock metrics. The profiler reads wall-clock time, so
//! unlike every other registry entry these values differ run to run —
//! they are kept under a distinct `prof.` prefix and must never be
//! part of a golden comparison. [`render_profile`] and
//! [`profile_json`] are `runner profile`'s table and JSON sidecar over
//! the same snapshot.

use crate::json::{escape, num};
use crate::metrics::Registry;
use sim_core::alloc_count::AllocSnapshot;
use sim_core::prof::ProfSnapshot;
use sim_core::SimTime;

/// Export `snap` into `reg` under the `prof.` prefix: per-phase
/// `prof.<phase>.calls` / `prof.<phase>.nanos` counters plus event
/// queue and MQ occupancy gauges (stamped at `t = 0`; the profiler has
/// no simulated timeline).
pub fn export_profile(reg: &mut Registry, snap: &ProfSnapshot) {
    for ps in &snap.phases {
        reg.add(&format!("prof.{}.calls", ps.phase.name()), ps.calls);
        reg.add(&format!("prof.{}.nanos", ps.phase.name()), ps.nanos);
    }
    let t0 = SimTime::ZERO;
    reg.gauge("prof.queue.depth_max", t0, snap.depth_max as f64);
    reg.gauge("prof.queue.depth_mean", t0, snap.depth_mean);
    reg.gauge("prof.mq.inflight_max", t0, snap.mq_inflight_max as f64);
}

/// The per-phase table `runner profile` prints.
pub fn render_profile(name: &str, snap: &ProfSnapshot, alloc: &AllocSnapshot) -> String {
    let total = snap.total_nanos().max(1);
    let mut out = format!("profile: {name}\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>10} {:>7}\n",
        "phase", "calls", "total ms", "mean ns", "share"
    ));
    for ps in &snap.phases {
        out.push_str(&format!(
            "{:<12} {:>12} {:>12.3} {:>10.0} {:>6.1}%\n",
            ps.phase.name(),
            ps.calls,
            ps.nanos as f64 / 1e6,
            ps.mean_nanos(),
            100.0 * ps.nanos as f64 / total as f64
        ));
    }
    out.push_str(&format!(
        "queue depth: max {} mean {:.1}; mq in-flight max {}\n",
        snap.depth_max, snap.depth_mean, snap.mq_inflight_max
    ));
    if alloc.enabled {
        out.push_str(&format!(
            "allocations: {} allocs, {} frees, peak {} bytes\n",
            alloc.allocs, alloc.frees, alloc.peak_bytes
        ));
    } else {
        out.push_str("allocations: counting off (build with --features sim-sweep/alloc-count)\n");
    }
    out
}

/// `runner profile`'s JSON sidecar for one figure run.
pub fn profile_json(
    name: &str,
    snap: &ProfSnapshot,
    alloc: &AllocSnapshot,
    events: u64,
    wall_s: f64,
) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"profile-v1\",\n  \"target\": \"{}\",\n  \"events\": {events},\n  \"wall_s\": {},\n  \"phases\": {{",
        escape(name),
        num(wall_s)
    );
    let mut first = true;
    for ps in &snap.phases {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "\"{}\": {{\"calls\": {}, \"nanos\": {}}}",
            ps.phase.name(),
            ps.calls,
            ps.nanos
        ));
    }
    out.push_str(&format!(
        "}},\n  \"queue\": {{\"depth_max\": {}, \"depth_mean\": {}, \"mq_inflight_max\": {}}},\n",
        snap.depth_max,
        num(snap.depth_mean),
        snap.mq_inflight_max
    ));
    out.push_str(&format!(
        "  \"alloc\": {{\"enabled\": {}, \"allocs\": {}, \"frees\": {}, \"peak_bytes\": {}}}\n}}\n",
        alloc.enabled, alloc.allocs, alloc.frees, alloc.peak_bytes
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::prof::{Phase, Profiler};

    #[test]
    fn exports_phases_and_gauges() {
        let p = Profiler::new();
        p.set_enabled(true);
        let t0 = p.start().unwrap();
        p.record(Phase::Sched, t0);
        p.sample_depth(17);
        let mut reg = Registry::new();
        export_profile(&mut reg, &p.snapshot());
        assert_eq!(reg.counter("prof.sched.calls"), 1);
        assert_eq!(reg.counter("prof.event_push.calls"), 0);
        let (_, depth) = reg
            .gauges()
            .find(|(name, _)| *name == "prof.queue.depth_max")
            .expect("depth gauge exported");
        assert_eq!(depth.len(), 1);
        assert_eq!(depth[0].1, 17.0);
    }

    #[test]
    fn profile_json_round_trips_through_the_parser() {
        let p = Profiler::new();
        p.set_enabled(true);
        let t0 = p.start().unwrap();
        p.record(Phase::EventPop, t0);
        let name = "fig\"03\"\n";
        let json = profile_json(name, &p.snapshot(), &AllocSnapshot::default(), 7, f64::NAN);
        let doc = crate::json::parse(&json).expect("sidecar parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("profile-v1")
        );
        assert_eq!(doc.get("target").and_then(|v| v.as_str()), Some(name));
        assert_eq!(doc.get("events").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(doc.get("wall_s").and_then(|v| v.as_f64()), Some(0.0));
        let pops = doc.get("phases").and_then(|v| v.get("event_pop")).unwrap();
        assert_eq!(pops.get("calls").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            doc.get("alloc")
                .and_then(|v| v.get("peak_bytes"))
                .and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}
