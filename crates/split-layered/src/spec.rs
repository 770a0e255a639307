//! Layer specifications: cgroup-like classification rules, per-layer
//! policies, and the `--layers` spec-string parser.
//!
//! A layer tree is an ordered list of [`LayerSpec`]s. A process is
//! classified once, at admission (the first time the scheduler sees it),
//! by the first rule that matches; the mandatory final layer carries the
//! catch-all [`LayerRule::Default`] so classification is total.

use sim_block::PrioClass;
use sim_core::Pid;
use std::fmt;

/// How processes are matched into a layer (first match wins).
#[derive(Debug, Clone, PartialEq)]
pub enum LayerRule {
    /// An explicit pid set (the analogue of `cgroup.procs`).
    Pids(Vec<u32>),
    /// Processes whose registered name starts with this prefix
    /// (the analogue of a systemd slice). Names are registered with
    /// `SchedAttr::ProcName` before the process's first I/O.
    NamePrefix(String),
    /// Processes whose I/O priority class matches (the cause-tag class:
    /// the class that rides the process's cause tags on every request).
    IoClass(PrioClass),
    /// `pid % modulus == remainder` — a deterministic partition used by
    /// the fuzz matrix, where pids are sequential and anonymous.
    PidMod {
        /// Divisor (> 0).
        modulus: u32,
        /// Selected residue class.
        remainder: u32,
    },
    /// Catch-all; must be the last layer's rule.
    Default,
}

impl LayerRule {
    /// Does this rule match the process?
    pub(crate) fn matches(&self, pid: Pid, name: Option<&str>, class: Option<PrioClass>) -> bool {
        match self {
            LayerRule::Pids(set) => set.contains(&pid.0),
            LayerRule::NamePrefix(p) => name.is_some_and(|n| n.starts_with(p.as_str())),
            LayerRule::IoClass(c) => class == Some(*c),
            LayerRule::PidMod { modulus, remainder } => pid.0 % modulus == *remainder,
            LayerRule::Default => true,
        }
    }

    /// Whether the rule can be evaluated from the pid alone. The
    /// `LayerAuditor` replays classification from audit events, which
    /// carry pids but not names or priorities; it only accepts trees
    /// whose every rule is pid-decidable.
    pub fn pid_decidable(&self) -> bool {
        matches!(
            self,
            LayerRule::Pids(_) | LayerRule::PidMod { .. } | LayerRule::Default
        )
    }
}

/// The resource policy a layer enforces on its members.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerPolicy {
    /// Plain weighted proportional share (the default).
    Share,
    /// Guaranteed minimum utilization share of the device, in (0, 1].
    MinUtil {
        /// Guaranteed fraction of device service.
        share: f64,
    },
    /// Bandwidth cap: admitted write bytes are token-gated at the
    /// syscall level and reads throttled at dispatch (block writes are
    /// never held — journal entanglement, paper §3.3).
    BandwidthCap {
        /// Sustained rate in bytes per second (> 0).
        bytes_per_sec: u64,
    },
    /// Dispatch ahead of every non-latency layer.
    LatencyPrio,
}

/// One layer of the tree: a name, a classification rule, a policy, a
/// proportional weight, and the child scheduler that runs inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Unique layer name (reports, metrics, auditor).
    pub name: String,
    /// Who belongs here.
    pub rule: LayerRule,
    /// What the layer guarantees or bounds.
    pub policy: LayerPolicy,
    /// Proportional weight among sibling layers (> 0; default 1).
    pub weight: f64,
    /// Child scheduler name, resolved by the experiment builder
    /// (e.g. "cfq", "split-token", "block-deadline").
    pub child: String,
}

impl LayerSpec {
    /// A layer with weight 1 and the plain share policy.
    pub fn new(name: &str, rule: LayerRule, child: &str) -> Self {
        LayerSpec {
            name: name.to_string(),
            rule,
            policy: LayerPolicy::Share,
            weight: 1.0,
            child: child.to_string(),
        }
    }
}

/// A malformed layer tree, rejected before any scheduler is built.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec string or list contained no layers.
    Empty,
    /// Two layers share a name.
    DuplicateLayer(String),
    /// A bandwidth cap of zero bytes per second.
    ZeroCap(String),
    /// A weight that is not a positive finite number.
    BadWeight(String),
    /// A min-utilization share outside (0, 1].
    BadMinShare(String),
    /// A `pidmod` rule with modulus 0 or remainder >= modulus.
    BadPidMod(String),
    /// No catch-all default layer, or the default is not last.
    DefaultNotLast,
    /// A policy token the parser does not know.
    UnknownPolicy(String),
    /// A rule token the parser does not know.
    UnknownRule(String),
    /// A layer entry without the `name:rule:policy:child` shape.
    Malformed(String),
    /// A child scheduler name the resolver does not know (includes
    /// nesting a "layered" inside a layer).
    UnknownChild(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "layer spec is empty"),
            SpecError::DuplicateLayer(n) => write!(f, "duplicate layer name '{n}'"),
            SpecError::ZeroCap(n) => write!(f, "layer '{n}': bandwidth cap must be > 0"),
            SpecError::BadWeight(n) => {
                write!(f, "layer '{n}': weight must be a positive finite number")
            }
            SpecError::BadMinShare(n) => write!(f, "layer '{n}': min share must be in (0, 1]"),
            SpecError::BadPidMod(n) => {
                write!(
                    f,
                    "layer '{n}': pidmod needs modulus > 0 and remainder < modulus"
                )
            }
            SpecError::DefaultNotLast => {
                write!(
                    f,
                    "exactly one 'default' rule is required, on the last layer"
                )
            }
            SpecError::UnknownPolicy(p) => write!(f, "unknown policy '{p}'"),
            SpecError::UnknownRule(r) => write!(f, "unknown rule '{r}'"),
            SpecError::Malformed(e) => {
                write!(
                    f,
                    "malformed layer entry '{e}' (want name:rule:policy:child)"
                )
            }
            SpecError::UnknownChild(c) => write!(f, "unknown child scheduler '{c}'"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Validate a layer tree: non-empty, unique names, positive weights,
/// caps > 0, min shares in (0, 1], exactly one catch-all default rule
/// and it must be last (every earlier layer would shadow anything after
/// a default).
pub fn validate(specs: &[LayerSpec]) -> Result<(), SpecError> {
    if specs.is_empty() {
        return Err(SpecError::Empty);
    }
    for (i, s) in specs.iter().enumerate() {
        if specs[..i].iter().any(|p| p.name == s.name) {
            return Err(SpecError::DuplicateLayer(s.name.clone()));
        }
        if !(s.weight.is_finite() && s.weight > 0.0) {
            return Err(SpecError::BadWeight(s.name.clone()));
        }
        match s.policy {
            LayerPolicy::BandwidthCap { bytes_per_sec: 0 } => {
                return Err(SpecError::ZeroCap(s.name.clone()));
            }
            LayerPolicy::MinUtil { share } if !(share > 0.0 && share <= 1.0) => {
                return Err(SpecError::BadMinShare(s.name.clone()));
            }
            _ => {}
        }
        if let LayerRule::PidMod { modulus, remainder } = s.rule {
            if modulus == 0 || remainder >= modulus {
                return Err(SpecError::BadPidMod(s.name.clone()));
            }
        }
        let is_default = s.rule == LayerRule::Default;
        let is_last = i == specs.len() - 1;
        if is_default != is_last {
            return Err(SpecError::DefaultNotLast);
        }
    }
    Ok(())
}

/// Classify a process: index of the first layer whose rule matches.
/// Total because `validate` guarantees a trailing default layer.
pub fn classify(
    specs: &[LayerSpec],
    pid: Pid,
    name: Option<&str>,
    class: Option<PrioClass>,
) -> usize {
    specs
        .iter()
        .position(|s| s.rule.matches(pid, name, class))
        .unwrap_or(specs.len() - 1)
}

/// Parse a `--layers` spec string.
///
/// Grammar (layers separated by `;`, fields by `:`):
///
/// ```text
/// SPEC   := LAYER (';' LAYER)*
/// LAYER  := NAME ':' RULE ':' POLICY ':' CHILD
/// RULE   := 'pids=' PID (',' PID)* | 'prefix=' STR
///         | 'class=' ('rt'|'be'|'idle') | 'pidmod=' MOD ',' REM
///         | 'default'
/// POLICY := POL ('+weight=' FLOAT)?
/// POL    := 'share' | 'latency' | 'min=' FLOAT | 'cap=' BYTES_PER_SEC
/// ```
///
/// Example: `lat:pidmod=3,1:latency:block-deadline;bulk:default:cap=4194304+weight=2:cfq`
pub fn parse_layers(spec: &str) -> Result<Vec<LayerSpec>, SpecError> {
    let mut out = Vec::new();
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let parts: Vec<&str> = entry.trim().split(':').collect();
        if parts.len() != 4 {
            return Err(SpecError::Malformed(entry.trim().to_string()));
        }
        let (name, rule, policy, child) = (parts[0], parts[1], parts[2], parts[3]);
        if name.is_empty() || child.is_empty() {
            return Err(SpecError::Malformed(entry.trim().to_string()));
        }
        let rule = parse_rule(rule)?;
        let (policy, weight) = parse_policy(policy)?;
        out.push(LayerSpec {
            name: name.to_string(),
            rule,
            policy,
            weight,
            child: child.to_string(),
        });
    }
    validate(&out)?;
    Ok(out)
}

fn parse_rule(s: &str) -> Result<LayerRule, SpecError> {
    if s == "default" {
        return Ok(LayerRule::Default);
    }
    if let Some(list) = s.strip_prefix("pids=") {
        let pids: Result<Vec<u32>, _> = list.split(',').map(|p| p.trim().parse()).collect();
        return match pids {
            Ok(v) if !v.is_empty() => Ok(LayerRule::Pids(v)),
            _ => Err(SpecError::UnknownRule(s.to_string())),
        };
    }
    if let Some(p) = s.strip_prefix("prefix=") {
        if p.is_empty() {
            return Err(SpecError::UnknownRule(s.to_string()));
        }
        return Ok(LayerRule::NamePrefix(p.to_string()));
    }
    if let Some(c) = s.strip_prefix("class=") {
        return match c {
            "rt" => Ok(LayerRule::IoClass(PrioClass::RealTime)),
            "be" => Ok(LayerRule::IoClass(PrioClass::BestEffort)),
            "idle" => Ok(LayerRule::IoClass(PrioClass::Idle)),
            _ => Err(SpecError::UnknownRule(s.to_string())),
        };
    }
    if let Some(mr) = s.strip_prefix("pidmod=") {
        let mut it = mr.split(',');
        let m = it.next().and_then(|v| v.trim().parse::<u32>().ok());
        let r = it.next().and_then(|v| v.trim().parse::<u32>().ok());
        return match (m, r, it.next()) {
            (Some(m), Some(r), None) => Ok(LayerRule::PidMod {
                modulus: m,
                remainder: r,
            }),
            _ => Err(SpecError::UnknownRule(s.to_string())),
        };
    }
    Err(SpecError::UnknownRule(s.to_string()))
}

fn parse_policy(s: &str) -> Result<(LayerPolicy, f64), SpecError> {
    let mut policy = None;
    let mut weight = 1.0;
    for tok in s.split('+') {
        if let Some(w) = tok.strip_prefix("weight=") {
            weight = w
                .parse::<f64>()
                .map_err(|_| SpecError::UnknownPolicy(tok.to_string()))?;
            continue;
        }
        let p = if tok == "share" {
            LayerPolicy::Share
        } else if tok == "latency" {
            LayerPolicy::LatencyPrio
        } else if let Some(m) = tok.strip_prefix("min=") {
            let share = m
                .parse::<f64>()
                .map_err(|_| SpecError::UnknownPolicy(tok.to_string()))?;
            LayerPolicy::MinUtil { share }
        } else if let Some(c) = tok.strip_prefix("cap=") {
            let bytes_per_sec = c
                .parse::<u64>()
                .map_err(|_| SpecError::UnknownPolicy(tok.to_string()))?;
            LayerPolicy::BandwidthCap { bytes_per_sec }
        } else {
            return Err(SpecError::UnknownPolicy(tok.to_string()));
        };
        if policy.replace(p).is_some() {
            return Err(SpecError::UnknownPolicy(s.to_string()));
        }
    }
    Ok((policy.unwrap_or(LayerPolicy::Share), weight))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let specs = parse_layers(
            "lat:pidmod=3,1:latency:block-deadline;\
             svc:prefix=tenantA/:min=0.3:split-token;\
             rt:class=rt:share+weight=4:afq;\
             db:pids=7,9:cap=1048576+weight=2:cfq;\
             rest:default:share:noop",
        )
        .unwrap();
        assert_eq!(specs.len(), 5);
        assert_eq!(
            specs[0].rule,
            LayerRule::PidMod {
                modulus: 3,
                remainder: 1
            }
        );
        assert_eq!(specs[0].policy, LayerPolicy::LatencyPrio);
        assert_eq!(specs[1].rule, LayerRule::NamePrefix("tenantA/".into()));
        assert_eq!(specs[1].policy, LayerPolicy::MinUtil { share: 0.3 });
        assert_eq!(specs[2].rule, LayerRule::IoClass(PrioClass::RealTime));
        assert_eq!(specs[2].weight, 4.0);
        assert_eq!(specs[3].rule, LayerRule::Pids(vec![7, 9]));
        assert_eq!(
            specs[3].policy,
            LayerPolicy::BandwidthCap {
                bytes_per_sec: 1048576
            }
        );
        assert_eq!(specs[3].weight, 2.0);
        assert_eq!(specs[4].rule, LayerRule::Default);
    }

    #[test]
    fn rejects_unknown_policy() {
        assert_eq!(
            parse_layers("a:default:turbo:cfq"),
            Err(SpecError::UnknownPolicy("turbo".into()))
        );
    }

    #[test]
    fn rejects_zero_cap() {
        assert_eq!(
            parse_layers("a:default:cap=0:cfq"),
            Err(SpecError::ZeroCap("a".into()))
        );
    }

    #[test]
    fn rejects_duplicate_layer_name() {
        assert_eq!(
            parse_layers("a:pidmod=2,0:share:cfq;a:default:share:cfq"),
            Err(SpecError::DuplicateLayer("a".into()))
        );
    }

    #[test]
    fn requires_trailing_default() {
        assert_eq!(
            parse_layers("a:pidmod=2,0:share:cfq;b:pidmod=2,1:share:cfq"),
            Err(SpecError::DefaultNotLast)
        );
        assert_eq!(
            parse_layers("a:default:share:cfq;b:pidmod=2,1:share:cfq"),
            Err(SpecError::DefaultNotLast)
        );
    }

    #[test]
    fn rejects_bad_weight_and_min_share() {
        assert_eq!(
            parse_layers("a:default:share+weight=0:cfq"),
            Err(SpecError::BadWeight("a".into()))
        );
        assert_eq!(
            parse_layers("a:default:min=1.5:cfq"),
            Err(SpecError::BadMinShare("a".into()))
        );
    }

    #[test]
    fn rejects_bad_pidmod() {
        assert_eq!(
            parse_layers("a:pidmod=0,0:share:cfq;d:default:share:cfq"),
            Err(SpecError::BadPidMod("a".into()))
        );
        assert_eq!(
            parse_layers("a:pidmod=3,3:share:cfq;d:default:share:cfq"),
            Err(SpecError::BadPidMod("a".into()))
        );
    }

    #[test]
    fn classify_first_match_wins_and_is_total() {
        let specs =
            parse_layers("a:pids=5:share:cfq;b:pidmod=2,1:share:cfq;d:default:share:cfq").unwrap();
        assert_eq!(classify(&specs, Pid(5), None, None), 0);
        assert_eq!(classify(&specs, Pid(3), None, None), 1);
        assert_eq!(classify(&specs, Pid(4), None, None), 2);
    }

    #[test]
    fn classify_by_name_and_class() {
        let specs =
            parse_layers("svc:prefix=tenantA/:share:cfq;rt:class=rt:share:cfq;d:default:share:cfq")
                .unwrap();
        assert_eq!(classify(&specs, Pid(1), Some("tenantA/db"), None), 0);
        assert_eq!(
            classify(
                &specs,
                Pid(1),
                Some("tenantB/db"),
                Some(PrioClass::RealTime)
            ),
            1
        );
        assert_eq!(classify(&specs, Pid(1), None, None), 2);
        assert!(!specs[0].rule.pid_decidable());
        assert!(specs[2].rule.pid_decidable());
    }
}
