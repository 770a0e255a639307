//! The feasible-weights solver.
//!
//! scx_layered's README calls out the *infeasible weights* problem: a
//! guarantee set that cannot be satisfied — the sum of minimum shares
//! exceeding capacity, or one huge weight entitling a layer to more
//! service than its own cap lets it consume, stranding the remainder.
//! Rather than silently starving layers (or panicking), the solver
//! renormalizes the entitlements and reports every adjustment it made as
//! a typed [`Adjustment`] so operators see exactly what they actually
//! got.
//!
//! Inputs are abstract shares of device service: weights (relative),
//! optional minimum shares and optional cap shares (both absolute
//! fractions of capacity). The arbiter derives cap shares from each
//! layer's byte-rate cap and a device-bandwidth hint ([`BW_HINT`]).

use crate::spec::{LayerPolicy, LayerSpec};
use std::fmt;

/// Device-bandwidth hint (bytes/second) used to translate byte-rate caps
/// into capacity shares for the solver.
const BW_HINT: u64 = 128 * 1024 * 1024;

/// Solver input for one layer.
#[derive(Debug, Clone)]
pub(crate) struct LayerEntitlement {
    /// Layer name (for the report).
    pub name: String,
    /// Relative weight (> 0).
    pub weight: f64,
    /// Guaranteed minimum share of capacity, if any.
    pub min_share: Option<f64>,
    /// Upper bound on the share the layer can use (from its bandwidth
    /// cap), if any.
    pub cap_share: Option<f64>,
}

impl LayerEntitlement {
    /// Derive an entitlement from a spec, translating a byte-rate cap
    /// into a capacity share via the device-bandwidth hint.
    pub(crate) fn from_spec(spec: &LayerSpec) -> Self {
        let (min_share, cap_share) = match spec.policy {
            LayerPolicy::MinUtil { share } => (Some(share), None),
            LayerPolicy::BandwidthCap { bytes_per_sec } => {
                (None, Some((bytes_per_sec as f64 / BW_HINT as f64).min(1.0)))
            }
            LayerPolicy::Share | LayerPolicy::LatencyPrio => (None, None),
        };
        LayerEntitlement {
            name: spec.name.clone(),
            weight: spec.weight,
            min_share,
            cap_share,
        }
    }
}

/// One repair the solver applied to make the guarantee set feasible.
#[derive(Debug, Clone, PartialEq)]
pub enum Adjustment {
    /// The minimum shares summed past capacity; all were scaled down
    /// proportionally so every layer keeps a non-zero guarantee.
    MinsRenormalized {
        /// Sum of the requested minimum shares (> 1).
        requested: f64,
        /// Sum actually granted (1.0).
        granted: f64,
    },
    /// A layer's weight entitled it to more than its cap lets it use;
    /// the stranded surplus was redistributed to uncapped layers.
    DominantCapped {
        /// Layer whose entitlement was clipped.
        layer: String,
        /// Share its raw weight asked for.
        raw_share: f64,
        /// Share granted (its cap share).
        granted_share: f64,
    },
    /// A layer's weighted share fell below its guaranteed minimum; it
    /// was raised to the minimum and the others scaled down.
    RaisedToMin {
        /// Layer that was lifted.
        layer: String,
        /// Share its raw weight asked for.
        raw_share: f64,
        /// Share granted (its effective minimum).
        granted_share: f64,
    },
}

impl fmt::Display for Adjustment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Adjustment::MinsRenormalized { requested, granted } => write!(
                f,
                "min shares sum to {requested:.2} > capacity; renormalized to {granted:.2}"
            ),
            Adjustment::DominantCapped {
                layer,
                raw_share,
                granted_share,
            } => write!(
                f,
                "layer '{layer}': weight share {raw_share:.3} exceeds its cap; \
                 clipped to {granted_share:.3}, surplus redistributed"
            ),
            Adjustment::RaisedToMin {
                layer,
                raw_share,
                granted_share,
            } => write!(
                f,
                "layer '{layer}': weight share {raw_share:.3} below guaranteed min; \
                 raised to {granted_share:.3}"
            ),
        }
    }
}

/// Solver output: effective shares and minimums per layer (parallel to
/// the input order) plus the typed repair report.
#[derive(Debug, Clone)]
pub struct FeasibleWeights {
    /// Effective service share per layer (sums to ≤ 1; strictly < 1
    /// only when every layer is capped).
    pub shares: Vec<f64>,
    /// Effective minimum guarantee per layer (0 where none requested).
    pub mins: Vec<f64>,
    /// Every adjustment made; empty when the request was feasible.
    pub adjustments: Vec<Adjustment>,
}

impl FeasibleWeights {
    /// Whether the requested guarantees were feasible as given.
    pub fn feasible(&self) -> bool {
        self.adjustments.is_empty()
    }
}

impl fmt::Display for FeasibleWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.feasible() {
            writeln!(f, "weights feasible as requested")?;
        }
        for a in &self.adjustments {
            writeln!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Solve the entitlement system. Never panics; never returns a zero
/// share for a layer that asked for a minimum.
pub(crate) fn solve(inputs: &[LayerEntitlement]) -> FeasibleWeights {
    let n = inputs.len();
    let mut adjustments = Vec::new();
    if n == 0 {
        return FeasibleWeights {
            shares: Vec::new(),
            mins: Vec::new(),
            adjustments,
        };
    }

    // 1. Feasible minimums: scale down proportionally if they oversubscribe.
    let mut mins: Vec<f64> = inputs
        .iter()
        .map(|e| e.min_share.unwrap_or(0.0).max(0.0))
        .collect();
    let min_sum: f64 = mins.iter().sum();
    if min_sum > 1.0 {
        for m in &mut mins {
            *m /= min_sum;
        }
        adjustments.push(Adjustment::MinsRenormalized {
            requested: min_sum,
            granted: 1.0,
        });
    }

    // 2. Raw weighted shares.
    let wsum: f64 = inputs.iter().map(|e| e.weight.max(0.0)).sum();
    let raw: Vec<f64> = if wsum > 0.0 {
        inputs.iter().map(|e| e.weight.max(0.0) / wsum).collect()
    } else {
        vec![1.0 / n as f64; n]
    };
    let mut shares = raw.clone();

    // 3. Water-fill the caps: a capped layer cannot use more than its
    //    cap share, however large its weight; its stranded surplus goes
    //    to the unfixed layers in proportion to their weights.
    let mut fixed = vec![false; n];
    loop {
        let mut clipped_any = false;
        for i in 0..n {
            if fixed[i] {
                continue;
            }
            if let Some(cap) = inputs[i].cap_share {
                let cap = cap.max(mins[i]); // a min dominates a smaller cap
                if shares[i] > cap + 1e-12 {
                    adjustments.push(Adjustment::DominantCapped {
                        layer: inputs[i].name.clone(),
                        raw_share: raw[i],
                        granted_share: cap,
                    });
                    shares[i] = cap;
                    fixed[i] = true;
                    clipped_any = true;
                }
            }
        }
        if !clipped_any {
            break;
        }
        // Redistribute whatever the fixed layers left on the table.
        let fixed_sum: f64 = (0..n).filter(|&i| fixed[i]).map(|i| shares[i]).sum();
        let free_weight: f64 = (0..n)
            .filter(|&i| !fixed[i])
            .map(|i| inputs[i].weight.max(0.0))
            .sum();
        let budget = (1.0 - fixed_sum).max(0.0);
        if free_weight > 0.0 {
            for i in 0..n {
                if !fixed[i] {
                    shares[i] = budget * inputs[i].weight.max(0.0) / free_weight;
                }
            }
        }
    }

    // 4. Honor the minimums: lift deficit layers to their min and scale
    //    the rest down to fit. Cap-clipped layers may shrink here too —
    //    a cap is an upper bound, not an entitlement. Iterate because
    //    lifting one layer can push another below its min.
    let mut min_fixed = vec![false; n];
    for _ in 0..n {
        let mut lifted_any = false;
        for i in 0..n {
            if !min_fixed[i] && shares[i] + 1e-12 < mins[i] {
                adjustments.push(Adjustment::RaisedToMin {
                    layer: inputs[i].name.clone(),
                    raw_share: shares[i],
                    granted_share: mins[i],
                });
                shares[i] = mins[i];
                min_fixed[i] = true;
                lifted_any = true;
            }
        }
        if !lifted_any {
            break;
        }
        let fixed_sum: f64 = (0..n).filter(|&i| min_fixed[i]).map(|i| shares[i]).sum();
        let free_sum: f64 = (0..n).filter(|&i| !min_fixed[i]).map(|i| shares[i]).sum();
        let budget = (1.0 - fixed_sum).max(0.0);
        if free_sum > 0.0 {
            let scale = budget / free_sum;
            for i in 0..n {
                if !min_fixed[i] {
                    shares[i] *= scale;
                }
            }
        }
    }

    FeasibleWeights {
        shares,
        mins,
        adjustments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ent(name: &str, weight: f64, min: Option<f64>, cap: Option<f64>) -> LayerEntitlement {
        LayerEntitlement {
            name: name.to_string(),
            weight,
            min_share: min,
            cap_share: cap,
        }
    }

    #[test]
    fn feasible_request_passes_through_untouched() {
        let fw = solve(&[ent("a", 1.0, Some(0.2), None), ent("b", 3.0, None, None)]);
        assert!(fw.feasible());
        assert!((fw.shares[0] - 0.25).abs() < 1e-9);
        assert!((fw.shares[1] - 0.75).abs() < 1e-9);
        assert_eq!(fw.mins, vec![0.2, 0.0]);
    }

    #[test]
    fn sum_of_mins_over_capacity_renormalizes_without_starving() {
        // 0.6 + 0.6 + 0.3 = 1.5 of capacity requested as guarantees.
        let fw = solve(&[
            ent("a", 1.0, Some(0.6), None),
            ent("b", 1.0, Some(0.6), None),
            ent("c", 1.0, Some(0.3), None),
        ]);
        assert!(!fw.feasible());
        assert!(fw.adjustments.iter().any(
            |a| matches!(a, Adjustment::MinsRenormalized { requested, granted }
                if (*requested - 1.5).abs() < 1e-9 && *granted == 1.0)
        ));
        // Scaled proportionally: 0.4 / 0.4 / 0.2 — nobody starved.
        assert!((fw.mins[0] - 0.4).abs() < 1e-9);
        assert!((fw.mins[1] - 0.4).abs() < 1e-9);
        assert!((fw.mins[2] - 0.2).abs() < 1e-9);
        assert!(fw.mins.iter().all(|&m| m > 0.0));
        let total: f64 = fw.shares.iter().sum();
        assert!(total <= 1.0 + 1e-9);
    }

    #[test]
    fn single_dominant_weight_cannot_strand_capacity_past_its_cap() {
        // One layer with an absurd weight but capped at 30% of the
        // device: its raw entitlement (~1.0) would strand 70% of the
        // capacity it can never use. The solver clips it to the cap and
        // hands the surplus to the others.
        let fw = solve(&[
            ent("whale", 1e9, None, Some(0.3)),
            ent("a", 1.0, None, None),
            ent("b", 1.0, None, None),
        ]);
        assert!(!fw.feasible());
        assert!(fw.adjustments.iter().any(
            |a| matches!(a, Adjustment::DominantCapped { layer, granted_share, .. }
                if layer == "whale" && (*granted_share - 0.3).abs() < 1e-9)
        ));
        assert!((fw.shares[0] - 0.3).abs() < 1e-9);
        assert!((fw.shares[1] - 0.35).abs() < 1e-9);
        assert!((fw.shares[2] - 0.35).abs() < 1e-9);
    }

    #[test]
    fn dominant_weight_with_minimums_on_the_rest() {
        // The huge-weight layer is uncapped, but the small layers hold
        // minimum guarantees; they must not be starved to ~0.
        let fw = solve(&[
            ent("whale", 1e6, None, None),
            ent("a", 1.0, Some(0.2), None),
            ent("b", 1.0, Some(0.2), None),
        ]);
        assert!(!fw.feasible());
        assert!(fw.shares[1] >= 0.2 - 1e-9);
        assert!(fw.shares[2] >= 0.2 - 1e-9);
        assert!((fw.shares[0] - 0.6).abs() < 1e-6);
        assert_eq!(
            fw.adjustments
                .iter()
                .filter(|a| matches!(a, Adjustment::RaisedToMin { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn all_layers_capped_leaves_headroom_unclaimed() {
        let fw = solve(&[
            ent("a", 1.0, None, Some(0.2)),
            ent("b", 1.0, None, Some(0.2)),
        ]);
        let total: f64 = fw.shares.iter().sum();
        assert!((total - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_weights_fall_back_to_equal_shares() {
        let fw = solve(&[ent("a", 0.0, None, None), ent("b", 0.0, None, None)]);
        assert!((fw.shares[0] - 0.5).abs() < 1e-9);
        assert!((fw.shares[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn report_renders() {
        let fw = solve(&[
            ent("whale", 1e9, None, Some(0.3)),
            ent("a", 1.0, Some(0.9), None),
            ent("b", 1.0, Some(0.9), None),
        ]);
        let text = fw.to_string();
        assert!(text.contains("renormalized"));
        assert!(text.contains("whale"));
    }
}
