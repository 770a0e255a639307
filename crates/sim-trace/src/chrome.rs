//! Chrome trace-event JSON and CSV exporters. The JSON is hand-rolled
//! (the container builds offline; no serde) and targets the subset of
//! the trace-event format that Perfetto and `chrome://tracing` load:
//! complete ("X") events for spans, counter ("C") events for gauges,
//! and metadata ("M") events naming the process and task tracks (and
//! labelling the process with the count of spans dropped past the cap,
//! if any were).
//!
//! Events are emitted sorted by timestamp so consumers that stream the
//! array (and our own tests) see monotone time.

use crate::json::{escape, num};
use crate::metrics::Registry;
use crate::span::SpanRecord;
use sim_core::{CauseSet, FastMap, Pid, SimTime};

fn micros(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1000.0
}

fn causes_tag(causes: &CauseSet) -> String {
    let v: Vec<String> = causes.iter().map(|p| p.raw().to_string()).collect();
    v.join("|")
}

/// Render spans + gauges as a Chrome trace-event JSON document.
pub(crate) fn chrome_json(
    process: u32,
    spans: &[SpanRecord],
    task_labels: &FastMap<Pid, &'static str>,
    registry: &Registry,
) -> String {
    // (sort key in ns, rendered event) — metadata first (key 0).
    let mut events: Vec<(u64, String)> = Vec::new();

    events.push((
        0,
        format!(
            r#"{{"ph":"M","name":"process_name","pid":{process},"tid":0,"args":{{"name":"kernel{process}"}}}}"#
        ),
    ));
    let dropped = registry.counter("trace.spans_dropped");
    if dropped > 0 {
        events.push((
            0,
            format!(
                r#"{{"ph":"M","name":"process_labels","pid":{process},"tid":0,"args":{{"labels":"{dropped} spans dropped"}}}}"#
            ),
        ));
    }
    let mut named: Vec<Pid> = Vec::new();
    for s in spans {
        if !named.contains(&s.pid) {
            named.push(s.pid);
        }
    }
    named.sort_unstable();
    for pid in named {
        let label = match task_labels.get(&pid) {
            Some(l) => format!("{l} (pid {pid})"),
            None => format!("pid {pid}"),
        };
        events.push((
            0,
            format!(
                r#"{{"ph":"M","name":"thread_name","pid":{process},"tid":{},"args":{{"name":"{}"}}}}"#,
                pid.raw(),
                escape(&label)
            ),
        ));
    }

    for s in spans {
        let Some(end) = s.end else {
            // Open spans (cut off at the end of the run) are skipped;
            // a complete event needs a duration.
            continue;
        };
        let ts = micros(s.start);
        let dur = micros(end) - ts;
        let arg = match s.arg {
            Some(a) => format!(r#","arg":{a}"#),
            None => String::new(),
        };
        events.push((
            s.start.as_nanos(),
            format!(
                r#"{{"name":"{}","cat":"{}","ph":"X","ts":{ts:.3},"dur":{dur:.3},"pid":{process},"tid":{},"args":{{"span":{},"parent":{},"causes":"{}"{arg}}}}}"#,
                escape(s.name),
                s.layer.name(),
                s.pid.raw(),
                s.id.raw(),
                s.parent.raw(),
                causes_tag(&s.causes),
            ),
        ));
    }

    for (name, series) in registry.gauges() {
        for &(t, v) in series {
            events.push((
                t.as_nanos(),
                format!(
                    r#"{{"name":"{}","ph":"C","ts":{:.3},"pid":{process},"tid":0,"args":{{"value":{}}}}}"#,
                    escape(name),
                    micros(t),
                    num(v),
                ),
            ));
        }
    }

    events.sort_by_key(|(t, _)| *t);
    let body: Vec<String> = events.into_iter().map(|(_, e)| e).collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        body.join(",\n")
    )
}

/// Render spans as CSV
/// (`span,parent,layer,name,pid,start_s,end_s,dur_ms,causes,arg`).
pub(crate) fn spans_csv(spans: &[SpanRecord]) -> String {
    let mut out = String::from("span,parent,layer,name,pid,start_s,end_s,dur_ms,causes,arg\n");
    for s in spans {
        let (end_s, dur_ms) = match s.end {
            Some(e) => (
                format!("{:.6}", e.as_secs_f64()),
                format!("{:.3}", e.since(s.start).as_millis_f64()),
            ),
            None => (String::new(), String::new()),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{:.6},{},{},{},{}\n",
            s.id.raw(),
            s.parent.raw(),
            s.layer.name(),
            s.name,
            s.pid.raw(),
            s.start.as_secs_f64(),
            end_s,
            dur_ms,
            causes_tag(&s.causes),
            s.arg.map(|a| a.to_string()).unwrap_or_default(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Layer, SpanId};

    fn span(id: u64, parent: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: SpanId(parent),
            layer: Layer::Syscall,
            name: "fsync",
            pid: Pid(4),
            causes: CauseSet::from_pids([Pid(4), Pid(5)]),
            start: SimTime::from_nanos(start),
            end: Some(SimTime::from_nanos(end)),
            arg: Some(9),
        }
    }

    #[test]
    fn chrome_json_is_valid_and_tagged() {
        let spans = vec![span(1, 0, 1000, 5000), span(2, 1, 2000, 3000)];
        let mut reg = Registry::new();
        reg.gauge("cache.dirty_pages", SimTime::from_nanos(1500), 42.0);
        let json = chrome_json(0, &spans, &FastMap::default(), &reg);
        crate::json::validate(&json).expect("exporter must emit well-formed JSON");
        assert!(json.contains(r#""causes":"4|5""#));
        assert!(json.contains(r#""cat":"syscall""#));
        assert!(json.contains(r#""ph":"C""#));
        assert!(json.contains(r#""arg":9"#));
    }

    #[test]
    fn chrome_json_round_trips_hostile_names_and_values() {
        // Gauge names with quotes/backslashes/control chars must come
        // back intact through a real parse, and non-finite values must
        // not corrupt the document.
        let hostile = "sched.\"q\\u\\o\\t'd\"\ttokens/3\n";
        let mut reg = Registry::new();
        reg.gauge(hostile, SimTime::from_nanos(1_000), f64::NAN);
        reg.gauge(hostile, SimTime::from_nanos(2_000), f64::INFINITY);
        reg.gauge(hostile, SimTime::from_nanos(3_000), -2.5);
        let json = chrome_json(7, &[], &FastMap::default(), &reg);
        let doc = crate::json::parse(&json).expect("exporter emits parseable JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 3);
        for c in &counters {
            assert_eq!(c.get("name").and_then(|n| n.as_str()), Some(hostile));
        }
        let values: Vec<f64> = counters
            .iter()
            .map(|c| {
                c.get("args")
                    .unwrap()
                    .get("value")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(values, vec![0.0, 0.0, -2.5], "non-finite pins to 0");
    }

    #[test]
    fn csv_has_one_row_per_span() {
        let csv = spans_csv(&[span(1, 0, 0, 10)]);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("syscall,fsync,4"));
    }
}
