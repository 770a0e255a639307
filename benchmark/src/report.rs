//! What a run prints, the panel document, and `--compare`.

use sim_trace::json::Value;

use crate::contract::{Better, END_TO_END, PER_LAYER};
use crate::measure::Quartiles;

/// A finite `f64` as a JSON number with all its digits (non-finite pins
/// to 0, matching the trace exporter's convention).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One reported metric.
pub struct Reported {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// One human-readable row: the median with its spread.
pub fn quartile_row(name: &str, unit: &str, q: &Quartiles) -> String {
    format!(
        "{name:<16} {:>14} {unit:<4} (min {}, q1 {}, q3 {}, max {}, n {})",
        num(q.median),
        num(q.min),
        num(q.q1),
        num(q.q3),
        num(q.max),
        q.n
    )
}

/// Two panel documents held against each other.
#[derive(Debug, Default)]
pub struct Comparison {
    /// A bounded metric outside its bound, an exact metric that differs,
    /// or a result missing on one side. Any entry fails the comparison.
    pub disagreements: Vec<String>,
    /// Host-time layer metrics (no bound) more than a quarter apart:
    /// listed, not failed.
    pub unresolved: Vec<String>,
    /// Metrics compared and found in agreement.
    pub agreed: usize,
}

/// Share by which the worse of `a` and `b` is worse than the better one.
fn apart(a: f64, b: f64, better: Better) -> f64 {
    let (good, bad) = match better {
        Better::Lower => (a.min(b), a.max(b)),
        Better::Higher => (a.max(b), a.min(b)),
    };
    if good == bad {
        0.0
    } else if good > 0.0 {
        (bad - good).abs() / good
    } else {
        f64::INFINITY
    }
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Share apart beyond which an unbounded host-time layer metric is
/// listed as unresolved.
const UNRESOLVED_APART: f64 = 0.25;

/// Apply each metric's own bound to two panel documents of the same
/// code: end-to-end medians must sit within their bound of each other,
/// exact metrics and digests must be equal, and every other metric that
/// is far apart is listed as unresolved.
pub fn compare(a: &Value, b: &Value) -> Comparison {
    let mut c = Comparison::default();
    let empty: &[(String, Value)] = &[];
    let workloads = |doc: &'_ Value| -> Vec<String> {
        doc.get("workloads")
            .and_then(|w| w.as_obj())
            .unwrap_or(empty)
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    for w in wb.iter().filter(|w| !wa.contains(w)) {
        c.disagreements
            .push(format!("{w}: only in the second document"));
    }
    for w in &wa {
        let side = |doc: &Value, key: &str| doc.get("workloads")?.get(w)?.get(key).cloned();
        let (Some(ta), Some(tb)) = (side(a, "timed"), side(b, "timed")) else {
            c.disagreements
                .push(format!("{w}: timed result missing on one side"));
            continue;
        };
        let (Some(la), Some(lb)) = (side(a, "traced"), side(b, "traced")) else {
            c.disagreements
                .push(format!("{w}: traced result missing on one side"));
            continue;
        };
        let digest =
            |doc: &Value| side(doc, "sim_digest").and_then(|d| d.as_str().map(String::from));
        if digest(a) != digest(b) || digest(a).is_none() {
            c.disagreements.push(format!(
                "{w}: sim_digest {:?} vs {:?}",
                digest(a),
                digest(b)
            ));
        } else {
            c.agreed += 1;
        }
        for side in [&ta, &tb, &la, &lb] {
            if side.get("failed").and_then(|f| f.as_u64()) != Some(0) {
                c.disagreements
                    .push(format!("{w}: a run reports failed ops"));
            }
        }
        for m in &END_TO_END {
            match (metric_value(&ta, m.name), metric_value(&tb, m.name)) {
                (Some(x), Some(y)) => {
                    let d = apart(x, y, m.better);
                    if d > m.bound {
                        c.disagreements.push(format!(
                            "{w} {}: {} vs {} {} is {:.1}% apart (bound {:.0}%)",
                            m.name,
                            num(x),
                            num(y),
                            m.unit,
                            d * 100.0,
                            m.bound * 100.0
                        ));
                    } else {
                        c.agreed += 1;
                    }
                }
                _ => c.disagreements.push(format!("{w} {}: missing", m.name)),
            }
        }
        for m in &PER_LAYER {
            match (metric_value(&la, m.name), metric_value(&lb, m.name)) {
                (Some(x), Some(y)) if m.exact => {
                    if x == y {
                        c.agreed += 1;
                    } else {
                        c.disagreements.push(format!(
                            "{w} {}: exact metric reads {} vs {}",
                            m.name,
                            num(x),
                            num(y)
                        ));
                    }
                }
                (Some(x), Some(y)) => {
                    let d = apart(x, y, m.better);
                    if d > UNRESOLVED_APART {
                        c.unresolved.push(format!(
                            "{w} {}: {} vs {} {} ({:.0}% apart, no bound)",
                            m.name,
                            num(x),
                            num(y),
                            m.unit,
                            d * 100.0
                        ));
                    } else {
                        c.agreed += 1;
                    }
                }
                _ => c.disagreements.push(format!("{w} {}: missing", m.name)),
            }
        }
    }
    c
}

impl Comparison {
    /// Whether the two documents agree.
    pub fn agrees(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// Render for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.disagreements {
            out.push_str(&format!("DISAGREE {d}\n"));
        }
        for u in &self.unresolved {
            out.push_str(&format!("unresolved {u}\n"));
        }
        out.push_str(&format!(
            "compare: {} metric(s) agree, {} unresolved, {} disagree\n",
            self.agreed,
            self.unresolved.len(),
            self.disagreements.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_trace::json::parse;

    fn doc(wall: f64, calls: f64, hold: f64, digest: &str) -> Value {
        let timed: Vec<Reported> = END_TO_END
            .iter()
            .map(|m| Reported {
                name: m.name,
                unit: m.unit,
                value: if m.name == "wall_s" { wall } else { 1.0 },
            })
            .collect();
        let traced: Vec<Reported> = PER_LAYER
            .iter()
            .map(|m| Reported {
                name: m.name,
                unit: m.unit,
                value: match m.name {
                    "sim-cache.calls" => calls,
                    "sim-core.eventq.hold_d64_ns" => hold,
                    _ => 2.0,
                },
            })
            .collect();
        parse(&format!(
            "{{\"workloads\":{{\"w\":{{\"sim_digest\":\"{digest}\",\"timed\":{},\"traced\":{}}}}}}}",
            result_line(true, 10, 0, &timed),
            result_line(true, 10, 0, &traced)
        ))
        .expect("valid JSON")
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            0,
            0,
            &[Reported {
                name: "wall_s",
                unit: "s",
                value: 1.25,
            }],
        );
        let v = parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1), "at least 1");
        assert_eq!(metric_value(&v, "wall_s"), Some(1.25));
    }

    #[test]
    fn compare_applies_each_metrics_own_rule() {
        let base = doc(1.0, 100.0, 50.0, "ab");
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "wall_s")
            .unwrap()
            .bound;
        let (inside, outside) = (1.0 + 0.8 * bound, 1.0 + 1.2 * bound);
        // Within wall_s's bound, in either order.
        assert!(compare(&base, &doc(inside, 100.0, 50.0, "ab")).agrees());
        assert!(compare(&doc(inside, 100.0, 50.0, "ab"), &base).agrees());
        // Outside it, in either order.
        assert!(!compare(&base, &doc(outside, 100.0, 50.0, "ab")).agrees());
        assert!(!compare(&doc(outside, 100.0, 50.0, "ab"), &base).agrees());
        // An exact metric must be equal; so must the digest.
        assert!(!compare(&base, &doc(1.0, 101.0, 50.0, "ab")).agrees());
        assert!(!compare(&base, &doc(1.0, 100.0, 50.0, "cd")).agrees());
        // A host-time layer metric far apart is unresolved, not failed.
        let c = compare(&base, &doc(1.0, 100.0, 90.0, "ab"));
        assert!(c.agrees());
        assert_eq!(c.unresolved.len(), 1);
    }

    #[test]
    fn compare_fails_on_a_workload_missing_from_either_side() {
        let base = doc(1.0, 100.0, 50.0, "ab");
        let empty = parse("{\"workloads\":{}}").unwrap();
        assert!(!compare(&base, &empty).agrees());
        assert!(!compare(&empty, &base).agrees());
    }
}
