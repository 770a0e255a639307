//! The benchmark against its contract: what `BENCHMARK.json` declares is
//! what the code emits, and both stay inside the contract's limits.

mod common;

use std::collections::BTreeSet;
use std::path::Path;

use sim_trace::json::{self, Value};
use splitbench::contract::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use splitbench::run::{run_timed, run_traced};
use splitbench::workloads::WORKLOADS;

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert!(text.len() <= 64 * 1024, "at most 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(|x| x.as_str())
        .unwrap_or_else(|| panic!("string {key}"))
}

/// (name, unit, better) of every entry of a metric list.
fn declared(doc: &Value, list: &str) -> Vec<(String, String, String)> {
    doc.get(list)
        .and_then(|l| l.as_arr())
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_string(),
                str_of(m, "unit").to_string(),
                str_of(m, "better").to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys_and_stays_in_its_limits() {
    let doc = benchmark_json();
    let mut top = keys(&doc);
    top.sort_unstable();
    assert_eq!(
        top,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command = doc.get("command").unwrap().as_arr().unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths = doc.get("paths").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&paths.len()));
    let seconds = doc
        .get("run_seconds")
        .unwrap()
        .as_u64()
        .expect("whole number");
    assert!((1..=60).contains(&seconds));
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    // The driver's time cap: 4 + 22 runs per workload and two builds in
    // 3420 s. A timed run takes its measured seconds plus under 2 s; the
    // few traced runs add drives and extra passes (under 10 s on `fleet`);
    // 3 s a run on average and 90 s a build leave a tenth to spare.
    let runs = 4 + 22 * workloads.len() as u64;
    assert!(
        runs * (seconds + 3) + 2 * 90 <= 3420 * 9 / 10,
        "{runs} runs of {seconds} s"
    );

    let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let largest = e2e
        .iter()
        .map(|m| m.get("bound").unwrap().as_f64().unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").unwrap().as_f64(), Some(largest));
    let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }

    // Every name is well-formed and used once across the whole file.
    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for entry in doc.get(list).unwrap().as_arr().unwrap() {
            let name = str_of(entry, "name");
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.to_string()), "{name} is used twice");
            if list != "workloads" {
                assert!(valid_unit(str_of(entry, "unit")), "{name}");
                assert!(matches!(str_of(entry, "better"), "lower" | "higher"));
            }
        }
    }
}

#[test]
fn the_codes_tables_are_the_declared_ones() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));

    let code: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), code);
    for (m, d) in END_TO_END
        .iter()
        .zip(doc.get("end_to_end").unwrap().as_arr().unwrap())
    {
        assert_eq!(
            d.get("bound").unwrap().as_f64(),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let code: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(declared(&doc, "per_layer"), code);
}

#[test]
fn a_run_emits_exactly_the_declared_metrics_and_a_span_tree() {
    let doc = benchmark_json();
    let timed = run_timed(&common::OVERWRITE, 1, 0.01);
    assert!(timed.correct && timed.failed == 0 && timed.attempted > 0);
    let emitted: Vec<_> = timed.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want = declared(&doc, "end_to_end");
    assert_eq!(
        emitted,
        want.iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect::<Vec<_>>()
    );
    for m in &timed.metrics {
        assert!(m.value > 0.0, "{} is never 0", m.name);
    }

    let traced = run_traced(&common::SCAN, 1, 0.01, root());
    assert!(traced.correct, "{:?}", traced.lines);
    let emitted: Vec<_> = traced.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want = declared(&doc, "per_layer");
    assert_eq!(
        emitted,
        want.iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect::<Vec<_>>()
    );
    let value = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    assert!(value("sim-block.mq_pump.calls") > 0.0);
    assert!(value("repo.src_loc") > 10_000.0);
    assert_eq!(value("sim-cluster.events_per_window"), 0.0, "not the fleet");

    // The span file: workload → {setup → build, run → slice[i], collect},
    // one id per rep, the phase table on `run`.
    let text = std::fs::read_to_string(root().join("benchmark/out/trace_tiny_scan.json")).unwrap();
    let trace = json::parse(&text).expect("span file parses");
    let spans = trace.get("spans").unwrap().as_arr().unwrap();
    let name = |s: &Value| str_of(s, "name").to_string();
    let parent_name = |s: &Value| {
        s.get("parent")
            .and_then(|p| p.as_u64())
            .map(|p| name(&spans[p as usize]))
    };
    let top = &spans[0];
    assert_eq!(
        (name(top), parent_name(top)),
        ("tiny_scan".to_string(), None)
    );
    for (child, parent) in [
        ("setup", "tiny_scan"),
        ("build", "setup"),
        ("run", "tiny_scan"),
        ("slice[0]", "split-token"),
        ("split-token", "run"),
        ("collect", "tiny_scan"),
    ] {
        let s = spans
            .iter()
            .find(|s| name(s) == child)
            .unwrap_or_else(|| panic!("{child}"));
        assert_eq!(parent_name(s).as_deref(), Some(parent), "{child}");
        assert!(s.get("end").unwrap().as_u64() >= s.get("start").unwrap().as_u64());
    }
    let reps: BTreeSet<u64> = spans
        .iter()
        .map(|s| s.get("rep").unwrap().as_u64().unwrap())
        .collect();
    assert!(reps.len() >= 2, "one id per profiled rep");
    let run = spans.iter().rev().find(|s| name(s) == "run").unwrap();
    assert!(run
        .get("attrs")
        .and_then(|a| a.get("split-core.sched_hooks.ns_per_event"))
        .is_some());
}
