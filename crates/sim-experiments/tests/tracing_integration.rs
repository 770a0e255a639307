//! Cross-layer tracing integration: run a real contention workload
//! (small log appends + fsync vs. large random checkpoints, the Figure
//! 12 shape) with span tracing enabled and check the whole
//! observability pipeline end to end — span-tree integrity, the Chrome
//! exporter, cause-tag round-tripping, the latency decomposition, and
//! that tracing is pure observation (it never perturbs the simulation).

use sim_check::AuditPlane;
use sim_core::{KernelId, Pid};
use sim_core::{SimDuration, SimTime};
use sim_experiments::fig12_fsync_isolation::Contention;
use sim_experiments::{DeviceChoice, SchedChoice, Setup, MB};
use sim_kernel::World;
use sim_trace::{fsync_breakdown, Layer};
use split_core::SchedAttr;

/// Figure-12-shaped world: A appends and fsyncs, B checkpoints.
fn contention_world(trace: bool) -> (World, KernelId, Pid, Pid) {
    contention_world_on(Setup::new(SchedChoice::SplitDeadline), |w, k| {
        if trace {
            w.enable_tracing(k);
        }
    })
}

/// [`contention_world`] on an arbitrary scheduler and device plane, with
/// `observe` installing whatever observers the test wants before anything
/// runs: Figure 12's scenario on smaller files, with half-size
/// checkpoints that start at once, run for 8 simulated seconds. Under a
/// token scheduler A and B each get a bucket of their own, both below
/// what they ask for.
fn contention_world_on(
    setup: Setup,
    observe: impl FnOnce(&mut World, KernelId),
) -> (World, KernelId, Pid, Pid) {
    let scenario = Contention {
        a_file: 64 * MB,
        b_file: 256 * MB,
        b_blocks: 512,
        b_start: SimDuration::ZERO,
        ..Contention::fig12(DeviceChoice::Hdd)
    };
    let (mut w, k, a, b) = scenario.world(setup, observe);
    if matches!(setup.sched, SchedChoice::SplitToken | SchedChoice::ScsToken) {
        w.configure(k, a, SchedAttr::TokenRate(128 * 1024));
        w.configure(k, b, SchedAttr::TokenRate(16 * MB));
    }
    w.run_for(SimDuration::from_secs(8));
    (w, k, a, b)
}

#[test]
fn spans_cover_at_least_four_layers() {
    let (w, k, _, _) = contention_world(true);
    let spans = w.tracer(k).expect("traced").spans();
    assert!(
        spans.len() > 100,
        "expected a real trace, got {}",
        spans.len()
    );
    let mut layers: Vec<Layer> = spans.iter().map(|s| s.layer).collect();
    layers.sort_by_key(|l| l.name());
    layers.dedup();
    assert!(
        layers.len() >= 4,
        "spans must come from >= 4 layers, got {layers:?}"
    );
}

#[test]
fn span_tree_parent_child_integrity() {
    let (w, k, _, _) = contention_world(true);
    let spans = w.tracer(k).expect("traced").spans();
    // Span ids are dense and 1-based: spans[i].id == i + 1.
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.id.raw(), i as u64 + 1, "dense ids");
    }
    for s in &spans {
        if s.parent.is_none() {
            continue;
        }
        let p = &spans[(s.parent.raw() - 1) as usize];
        assert!(
            p.start <= s.start,
            "child {:?}/{} starts before its parent {:?}/{}",
            s.layer,
            s.name,
            p.layer,
            p.name
        );
        // A parent never crosses layers upward past the syscall root.
        assert_ne!(p.id, s.id, "no self-parenting");
    }
    // The cross-layer links actually exist: some block-layer queue span
    // must be parented to a higher-layer span.
    assert!(
        spans.iter().any(|s| s.layer == Layer::Block
            && !s.parent.is_none()
            && spans[(s.parent.raw() - 1) as usize].layer != Layer::Block),
        "queue spans must link up into syscall/journal/writeback spans"
    );
}

#[test]
fn chrome_export_is_valid_json_with_monotone_timestamps() {
    let (w, k, _, _) = contention_world(true);
    let json = w.tracer(k).expect("traced").chrome_json();
    sim_trace::json::validate(&json).expect("chrome export must be well-formed JSON");
    // Events are emitted sorted by timestamp: scan the "ts": values in
    // document order and check they never go backwards.
    let mut last = f64::MIN;
    let mut seen = 0usize;
    for chunk in json.split("\"ts\":").skip(1) {
        let end = chunk.find(',').expect("ts field is comma-terminated");
        let ts: f64 = chunk[..end].parse().expect("ts parses as a number");
        assert!(ts >= last, "timestamps must be monotone: {ts} after {last}");
        last = ts;
        seen += 1;
    }
    assert!(seen > 100, "expected many events, saw {seen}");
}

#[test]
fn causes_round_trip_through_chrome_args() {
    let (w, k, _, _) = contention_world(true);
    let spans = w.tracer(k).expect("traced").spans();
    // Journal commits under contention carry multiple processes' causes
    // (entanglement); check at least one such span exists and that its
    // cause set survives verbatim into the Chrome args.
    let entangled = spans
        .iter()
        .filter(|s| s.end.is_some() && s.causes.iter().count() >= 2)
        .max_by_key(|s| s.causes.iter().count())
        .expect("contention must produce a multi-cause span");
    let tag: Vec<String> = entangled
        .causes
        .iter()
        .map(|p| p.raw().to_string())
        .collect();
    let needle = format!("\"causes\":\"{}\"", tag.join("|"));
    let json = w.tracer(k).expect("traced").chrome_json();
    assert!(
        json.contains(&needle),
        "chrome args must carry the cause tag {needle}"
    );
}

#[test]
fn breakdown_components_sum_to_end_to_end() {
    let (w, k, _, _) = contention_world(true);
    let b = fsync_breakdown(&w.tracer(k).expect("traced").spans());
    assert!(
        b.count > 10,
        "expected many completed fsyncs, got {}",
        b.count
    );
    let sum = b.components_sum_ms();
    assert!(
        (sum - b.total_ms).abs() <= 0.05 * b.total_ms,
        "components {sum} ms must sum to end-to-end {} ms",
        b.total_ms
    );
}

#[test]
fn tracing_is_pure_observation() {
    // The same workload with every observer installed — spans and the
    // standard auditors — and with none must produce bit-equal simulated
    // outcomes: subscribers can observe but not perturb, and installing
    // them schedules no event of its own. Under every scheduler that
    // reports gauges too: sampling a token balance or a layer's share
    // must only read.
    let sample = |sched: SchedChoice, observed: bool| {
        let (w, k, a, b) = contention_world_on(Setup::new(sched), |w, k| {
            if observed {
                w.enable_tracing(k);
                w.kernel_mut(k).install_audit_plane(AuditPlane::standard());
            }
        });
        let kernel = w.kernel(k);
        if observed {
            let tr = w.tracer(k).expect("traced");
            assert!(!tr.spans().is_empty());
            let plane = kernel.audit_plane().expect("installed");
            assert_eq!(plane.violations().len(), 0, "{:?}", plane.violations());
            let gauges = tr.with_registry(|r| {
                r.gauges()
                    .filter(|(name, _)| name.starts_with("sched.") || name.starts_with("layered."))
                    .count()
            });
            let want = match sched {
                SchedChoice::SplitDeadline => 0,
                SchedChoice::Layered => 7,
                _ => 2,
            };
            assert_eq!(gauges, want, "{sched:?}'s gauge series");
        } else {
            // An untraced kernel builds no tracer at all, so no layer can
            // record a span, counter or gauge behind the span probe's back.
            assert!(w.tracer(k).is_none(), "{sched:?}: untraced tracer");
        }
        let procs = [a, b].map(|pid| {
            let st = kernel.stats.proc(pid).expect("ran");
            let fsyncs: Vec<(u64, u64)> = st
                .fsyncs
                .iter()
                .map(|(t, d)| (t.as_nanos(), d.as_nanos()))
                .collect();
            (st.writes, st.write_bytes, st.gated_time, fsyncs)
        });
        (
            w.events_processed(),
            kernel.stats.requests_dispatched,
            kernel.stats.device_bytes,
            procs,
        )
    };
    for sched in [
        SchedChoice::SplitDeadline,
        SchedChoice::SplitToken,
        SchedChoice::ScsToken,
        SchedChoice::Layered,
    ] {
        let observed = sample(sched, true);
        assert!(!observed.3[0].3.is_empty(), "{sched:?}: A completed fsyncs");
        assert_eq!(
            observed,
            sample(sched, false),
            "{sched:?}: observers must not change simulated behavior"
        );
    }
}

#[test]
fn metrics_registry_populates_across_layers() {
    let (w, k, _, _) = contention_world(true);
    w.tracer(k).expect("traced").with_registry(|reg| {
        for counter in ["syscall.fsync", "block.submitted", "journal.commits"] {
            assert!(reg.counter(counter) > 0, "counter {counter} must tick");
        }
        assert!(
            reg.gauges()
                .any(|(name, _)| name.starts_with("sched.tokens") || name == "block.queue_depth"),
            "gauge series must be recorded"
        );
    });
}

#[test]
fn fsync_latency_histogram_matches_sample_count() {
    let (w, k, a, b) = contention_world(true);
    let fsyncs_done = [a, b]
        .iter()
        .filter_map(|&p| w.kernel(k).stats.proc(p))
        .map(|s| s.fsyncs.len() as u64)
        .sum::<u64>();
    let hist_count = w
        .tracer(k)
        .expect("traced")
        .with_registry(|reg| reg.histogram("syscall.fsync_ms").map(|h| h.count()));
    assert_eq!(
        hist_count,
        Some(fsyncs_done),
        "every fsync must be observed"
    );
}

#[test]
fn time_is_simulated_not_wall_clock() {
    // A quick sanity check that the clock driving spans is SimTime: the
    // last span cannot end after the world's final simulated instant.
    let (w, k, _, _) = contention_world(true);
    let horizon = w.now();
    for s in w.tracer(k).expect("traced").spans() {
        if let Some(end) = s.end {
            assert!(
                end <= horizon,
                "span ends at {end:?} past horizon {horizon:?}"
            );
        }
        assert!(s.start >= SimTime::ZERO);
    }
}

/// `len:fnv1a64` of an export — enough to pin multi-megabyte traces byte
/// for byte without committing them.
fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{}:{h:016x}", s.len())
}

/// The three exports of a traced contention world on `setup`, digested.
fn contention_digests(plane: &str, setup: Setup) -> String {
    let (w, k, _, _) = contention_world_on(setup, |w, k| w.enable_tracing(k));
    let tr = w.tracer(k).expect("traced");
    let registry = tr.with_registry(|r| r.summary_csv() + &r.gauges_csv());
    let mut out = String::new();
    for (export, text) in [
        ("chrome_json", tr.chrome_json()),
        ("spans_csv", tr.spans_csv()),
        ("registry", registry),
    ] {
        out.push_str(&format!("contention/{plane}/{export} {}\n", digest(&text)));
    }
    out
}

/// Every export the tracing feeds, digested. Span ids are
/// allocation-ordered and histogram sums are float-add-ordered, so the
/// digests pin the *order* of the probe's emissions, not just their
/// content. The last two contention worlds pin the schedulers' own
/// gauges: Split-Token's two buckets and the layer arbiter's.
fn seam_digests() -> String {
    use sim_experiments::registry::{parse, run_cell, CellRequest, Profile};
    let mut out = contention_digests("serial", Setup::new(SchedChoice::SplitDeadline));
    out += &contention_digests(
        "ssd_qd8",
        Setup::new(SchedChoice::SplitDeadline)
            .on_ssd()
            .queue_depth(8),
    );
    let traced = run_cell(&CellRequest {
        trace: true,
        ..CellRequest::new(parse("fig12").unwrap(), Profile::Quick, 0)
    });
    for a in &traced.artifacts {
        out.push_str(&format!("fig12/{} {}\n", a.name, digest(&a.content)));
    }
    let breakdown = run_cell(&CellRequest::new(
        parse("breakdown").unwrap(),
        Profile::Quick,
        0,
    ));
    out.push_str(&format!(
        "breakdown/stdout {}\n",
        digest(&breakdown.summary)
    ));
    out += &contention_digests("split_token", Setup::new(SchedChoice::SplitToken));
    out += &contention_digests("layered", Setup::new(SchedChoice::Layered));
    out
}

#[test]
fn trace_exports_match_the_pinned_digests() {
    // The first nine lines were recorded with every layer calling the
    // tracer inline, so they hold `SpanProbe` to that exact call order;
    // regenerate with UPDATE_GOLDEN=1 only for an intended change to what
    // is traced.
    let got = seam_digests();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/trace_seam_digests.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write digests");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("digest fixture exists");
    assert_eq!(got, want, "a traced export drifted from its pinned digest");
}
