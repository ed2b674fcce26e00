//! The logical plan layer: every 1-D skeleton call, lazy or eager, is a
//! term.
//!
//! [`crate::Map::lazy`], [`crate::Zip::lazy`], [`crate::MapOverlapVec::lazy`]
//! and [`crate::Scan::lazy`] build a [`PlanNode`] DAG instead of executing
//! eagerly; [`crate::Expr::eval`] and [`crate::Reduce::call_fused`] lower
//! that DAG to device launches through this module. The eager 1-D calls
//! (`Map`/`Zip`/`MapOverlapVec::call_with`, `Reduce::call`) build the same
//! node their `lazy` form builds and lower it here too — a one-node plan on
//! which no rule fires, so it launches the skeleton's own kernel (the
//! empty derivation); `Scan::call` finishes with [`apply_offsets`].
//! Lowering applies semantics-preserving **rewrite rules** (in the spirit
//! of Steuwer/Fensch/Dubach's pattern rewrite rules):
//!
//! | rule          | rewrite                                                    |
//! |---------------|------------------------------------------------------------|
//! | `chain`       | elementwise stage chains weld into one kernel (PR 4 fusion)|
//! | `reduce-weld` | an elementwise DAG becomes the reduction's load prologue   |
//! | `stencil`     | a stencil recomputes its elementwise producer in-kernel    |
//! | `scan-offset` | scan's cross-device offset pass folds into a consumer load |
//!
//! Every rule preserves the exact per-element operation order, so fused and
//! staged executions are **bit-identical**; the plan proptests and the
//! `results.plan` bench section enforce this. The stencil rule trades halo
//! recomputation against intermediate-buffer traffic, so it is additionally
//! arbitrated by a cost model fed from the EWMA scheduler's throughput
//! observations (see [`cost`]).
//!
//! The whole layer is gated by `SKELCL_PLAN`:
//!
//! * unset / `1` / `on` — all rules plus the cost model (the default);
//! * `0` / `off` — no rule: the fully staged oracle, one skeleton kernel
//!   per stage (`skelcl_map`, `skelcl_zip`, `skelcl_mapoverlap_vec`),
//!   standalone scan-offset passes, plain (unwelded) reductions;
//! * a comma list of rule names (e.g. `chain,reduce-weld`) — exactly those
//!   rules, cost model off (unknown names are ignored).

pub(crate) mod cost;
pub(crate) mod ir;
pub(crate) mod lower;

pub(crate) use ir::{PlanNode, ScanOffsetState, StencilSpec};
pub(crate) use lower::{apply_offsets, eval_vector, prepare_reduce, FusedPlan};

/// Which rewrite rules a lowering may apply (parsed from `SKELCL_PLAN`).
/// With no rule enabled the lowering is the fully staged oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Elementwise chain fusion (subsumes PR 4's `Expr` DAG fusion).
    pub chain: bool,
    /// Elementwise-into-reduce welding (subsumes `call_fused`).
    pub weld: bool,
    /// Stencil-consumes-elementwise fusion (halo recomputation).
    pub stencil: bool,
    /// Scan add-offset pass folded into a downstream elementwise load.
    pub scan_offset: bool,
    /// Arbitrate stencil fusion with the scheduler-fed cost model.
    pub cost_model: bool,
}

impl PlanConfig {
    /// All rules on, cost model on — the default.
    pub fn all() -> Self {
        PlanConfig {
            chain: true,
            weld: true,
            stencil: true,
            scan_offset: true,
            cost_model: true,
        }
    }

    /// The fully staged oracle (`SKELCL_PLAN=0`): no rule enabled.
    pub fn oracle() -> Self {
        PlanConfig {
            chain: false,
            weld: false,
            stencil: false,
            scan_offset: false,
            cost_model: false,
        }
    }

    /// Parses a `SKELCL_PLAN` value (`None` means unset → all rules).
    pub fn parse(spec: Option<&str>) -> Self {
        let Some(spec) = spec else {
            return Self::all();
        };
        match spec.trim() {
            "" | "1" | "on" => Self::all(),
            "0" | "off" => Self::oracle(),
            list => {
                let mut cfg = Self::oracle();
                for rule in list.split(',') {
                    match rule.trim() {
                        "chain" => cfg.chain = true,
                        "reduce-weld" => cfg.weld = true,
                        "stencil" => cfg.stencil = true,
                        "scan-offset" => cfg.scan_offset = true,
                        _ => {}
                    }
                }
                cfg
            }
        }
    }

    /// Whether every rule is off, so each stage materialises (the
    /// `plan.decision` label `staged`).
    pub(crate) fn is_staged(&self) -> bool {
        !(self.chain || self.weld || self.stencil || self.scan_offset)
    }

    /// Reads `SKELCL_PLAN` from the environment.
    pub fn from_env() -> Self {
        Self::parse(std::env::var("SKELCL_PLAN").ok().as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_gate_values() {
        assert_eq!(PlanConfig::parse(None), PlanConfig::all());
        assert_eq!(PlanConfig::parse(Some("")), PlanConfig::all());
        assert_eq!(PlanConfig::parse(Some("1")), PlanConfig::all());
        assert_eq!(PlanConfig::parse(Some("on")), PlanConfig::all());
        assert_eq!(PlanConfig::parse(Some("0")), PlanConfig::oracle());
        assert_eq!(PlanConfig::parse(Some("off")), PlanConfig::oracle());

        let c = PlanConfig::parse(Some("chain,scan-offset"));
        assert!(c.chain && c.scan_offset);
        assert!(!c.weld && !c.stencil && !c.cost_model && !c.is_staged());
        assert!(PlanConfig::oracle().is_staged() && !PlanConfig::all().is_staged());
        assert!(PlanConfig::parse(Some("bogus")).is_staged());

        // Unknown names are ignored, known ones still apply.
        let c = PlanConfig::parse(Some("bogus,reduce-weld"));
        assert!(c.weld && !c.chain);
    }
}
