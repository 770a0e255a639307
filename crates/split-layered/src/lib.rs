//! `split-layered`: the hierarchical multi-tenant layer plane.
//!
//! Production isolation is hierarchical — tenant → service → process —
//! but every scheduler in `split-schedulers` is flat. This crate adds an
//! scx_layered-style layer plane on top of `split-core`'s [`IoSched`]
//! trait (DESIGN §4k):
//!
//! - **Classification** (`spec`): cgroup-like [`LayerSpec`] rules
//!   (pid set, registered-name prefix, I/O class, pid modulus) assign
//!   each process to a layer at admission; the mandatory trailing
//!   default layer makes classification total.
//! - **Policy** ([`Layered`]): each layer carries a min-utilization
//!   guarantee, a bandwidth cap, a latency priority, or a plain weighted
//!   share, enforced by the top-level arbiter — itself an [`IoSched`] —
//!   without holding block writes below the journal (paper §3.3).
//! - **Nesting**: each layer hosts an existing child scheduler
//!   (Split-Token, AFQ, CFQ, deadline, …) unchanged; a single-layer
//!   default tree takes the general path, which then only forwards, and
//!   is proven byte-identical to the flat child by the equivalence suite.
//! - **Feasibility** (`solver`): a weight-redistribution solver
//!   detects infeasible guarantee sets (sum of mins over capacity, one
//!   huge weight stranding capacity behind its own cap) and
//!   renormalizes with a typed [`Adjustment`] report instead of
//!   silently starving layers.
//!
//! [`IoSched`]: split_core::IoSched

mod layered;
mod solver;
mod spec;

pub use layered::{Layered, LayeredConfig};
pub use solver::{Adjustment, FeasibleWeights};
pub use spec::{classify, parse_layers, validate, LayerPolicy, LayerRule, LayerSpec, SpecError};
