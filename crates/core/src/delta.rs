//! Incremental delta-planning: budget-only replans from cached pass
//! artifacts.
//!
//! The expensive intermediates of the LCMM pipeline — the liveness
//! intervals folded into the feature interference graph (pass 1), the
//! prefetch plan and weight interference graph (pass 2), and each
//! tenant's DNNK gain curve — depend only on `(graph, profile, design,
//! options − tensor_budget)`. The budget enters the pipeline for the
//! first time in pass 3's capacity DP. [`PlanArtifacts`] captures that
//! invariant: build the passes 1–2 artifacts once per `(GraphId,
//! precision, allocator, design point)`, then
//! [`PlanArtifacts::replan_with_budget`]
//! replays only the capacity DP + pivot compensation + splitting +
//! reporting for any number of budgets.
//!
//! The replay is **bit-identical** to a from-scratch
//! [`crate::PlanRequest`] at every budget because both routes execute
//! the same code: [`crate::pipeline`]'s `build_front_end` produces the
//! artifacts and `run_back_end` consumes them, whether called
//! back-to-back (scratch) or across a cache boundary (delta). The
//! property tests in `crates/core/tests/delta_props.rs` and the
//! delta-equivalence gate in `checks/ci.sh` enforce this.
//!
//! See `docs/DELTA.md` for the artifact keys, the invariance argument,
//! and the invalidation rules the harness layers on top.

use crate::cancel::CancelToken;
use crate::coplan::{curve_from_buffers, initial_coloring, GainCurve, CAPACITY_UNIT_BYTES};
use crate::error::LcmmError;
use crate::eval::Evaluator;
use crate::pipeline::{build_front_end, run_back_end, FrontEnd, LcmmOptions, Pipeline};
use crate::profiling;
use crate::LcmmResult;
use lcmm_fpga::{AccelDesign, GraphProfile};
use lcmm_graph::{Graph, GraphId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Budget-invariant pass artifacts for one `(graph, design, options)`
/// point, plus a per-pool memo of DNNK gain curves.
///
/// The stored options have `tensor_budget` normalised to `None`: the
/// budget is the one degree of freedom a replay varies, so two requests
/// that differ only in budget share one artifact set (and one cache
/// entry, see [`crate::Harness::try_artifacts`]).
#[derive(Debug)]
pub struct PlanArtifacts {
    design: AccelDesign,
    profile: Arc<GraphProfile>,
    /// The fused latency table when `options.fusion` selected groups;
    /// `None` otherwise. Replans and gain curves run against this
    /// (falling back to `profile`), while [`Self::profile`] keeps
    /// returning the unfused table — the form every external consumer
    /// (e.g. [`crate::tenant_gain_curve`], which derives fusion itself)
    /// expects.
    fused_profile: Option<Arc<GraphProfile>>,
    options: LcmmOptions,
    front: FrontEnd,
    /// Content id of the graph the artifacts were built for.
    graph: GraphId,
    colored: std::sync::OnceLock<Vec<crate::interference::VirtualBuffer>>,
    curves: Mutex<HashMap<u64, Arc<GainCurve>>>,
}

impl PlanArtifacts {
    /// Builds artifacts from a *base* (undegraded) design: derates it
    /// exactly as [`crate::PlanRequest::with_design`] would, profiles
    /// the graph, and runs passes 1–2.
    ///
    /// Any `tensor_budget` in `options` is ignored (normalised away) —
    /// pass the budget to [`Self::replan_with_budget`] instead.
    pub fn build(
        graph: &Graph,
        base: AccelDesign,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, LcmmError> {
        let design = Pipeline::new(options).lcmm_design(base);
        let profile = Arc::new(design.profile(graph));
        Self::from_parts(graph, design, profile, options, cancel)
    }

    /// Builds artifacts from an already-derated design and its profile
    /// (the harness uses this to share its profile cache).
    pub fn from_parts(
        graph: &Graph,
        design: AccelDesign,
        profile: Arc<GraphProfile>,
        options: LcmmOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, LcmmError> {
        let options = options.with_tensor_budget(None);
        let (fusion, fused_profile) =
            match crate::fusion::prepare(graph, &profile, &design, &options) {
                Some((plan, fused)) => (plan, Some(Arc::new(fused))),
                None => (crate::fusion::FusionPlan::default(), None),
            };
        let effective = fused_profile.as_ref().unwrap_or(&profile);
        let evaluator = Evaluator::new(graph, effective);
        let front = build_front_end(
            graph, effective, &evaluator, &design, &options, &fusion, cancel,
        )?;
        Ok(Self {
            design,
            profile,
            fused_profile,
            options,
            front,
            graph: graph.id(),
            colored: std::sync::OnceLock::new(),
            curves: Mutex::new(HashMap::new()),
        })
    }

    /// The derated design the artifacts were built against.
    #[must_use]
    pub fn design(&self) -> &AccelDesign {
        &self.design
    }

    /// The (unfused) graph profile the artifacts were built against.
    #[must_use]
    pub fn profile(&self) -> &Arc<GraphProfile> {
        &self.profile
    }

    /// The latency table replays actually evaluate: the fused table
    /// when fusion selected groups, the base profile otherwise.
    fn effective_profile(&self) -> &Arc<GraphProfile> {
        self.fused_profile.as_ref().unwrap_or(&self.profile)
    }

    /// The fused groups the artifacts were built under (empty when
    /// fusion is off or selected nothing).
    #[must_use]
    pub fn fusion(&self) -> &crate::fusion::FusionPlan {
        &self.front.fusion
    }

    /// The normalised options (`tensor_budget` is always `None` here).
    #[must_use]
    pub fn options(&self) -> &LcmmOptions {
        &self.options
    }

    /// Guards against replaying artifacts built for a different graph:
    /// the content ids must match exactly.
    fn check_graph(&self, graph: &Graph) -> Result<(), LcmmError> {
        if graph.id() != self.graph {
            return Err(LcmmError::InvalidRequest(format!(
                "plan artifacts were built for graph {}, not '{}' ({})",
                self.graph,
                graph.name(),
                graph.id()
            )));
        }
        Ok(())
    }

    /// Replays passes 3–4 + reporting at `budget` (bytes; `None` = the
    /// design's full SRAM budget).
    ///
    /// Bit-identical to running [`crate::PlanRequest`] from scratch
    /// with the same design and `options.with_tensor_budget(budget)`:
    /// the scratch route computes the same front end this struct
    /// cached, then calls the same back end this method calls.
    pub fn replan_with_budget(
        &self,
        graph: &Graph,
        budget: Option<u64>,
        cancel: Option<&CancelToken>,
    ) -> Result<LcmmResult, LcmmError> {
        self.check_graph(graph)?;
        profiling::reset_counters();
        let t_total = Instant::now();
        let options = self.options.with_tensor_budget(budget);
        let profile = self.effective_profile();
        let evaluator = Evaluator::new(graph, profile);
        run_back_end(
            graph,
            self.design.clone(),
            profile,
            &evaluator,
            &options,
            self.front.clone(),
            t_total,
            cancel,
        )
    }

    /// The tenant's DNNK gain curve against a capacity pool of
    /// `pool_bytes`, memoised per pool size.
    ///
    /// Bit-identical to [`crate::tenant_gain_curve`] on the same
    /// inputs — both routes colour the cached interference graphs and
    /// run the same DNNK DP.
    pub fn gain_curve(&self, graph: &Graph, pool_bytes: u64) -> Result<Arc<GainCurve>, LcmmError> {
        self.check_graph(graph)?;
        let mut curves = self.curves.lock().expect("curve memo poisoned");
        if let Some(curve) = curves.get(&pool_bytes) {
            return Ok(Arc::clone(curve));
        }
        // A wider memoised curve subsumes this pool: entry `u` of the
        // DNNK value row depends only on columns `<= u`, never on the
        // column count (the standard knapsack prefix property), so the
        // prefix is bitwise the curve a fresh DP at this pool produces.
        let units = (pool_bytes / CAPACITY_UNIT_BYTES) as usize;
        let curve = if let Some(wider) = curves.values().find(|c| c.units() >= units) {
            GainCurve::from_values(wider.values()[..=units].to_vec())
        } else {
            let evaluator = Evaluator::new(graph, self.effective_profile());
            let buffers = self.colored.get_or_init(|| initial_coloring(&self.front));
            curve_from_buffers(
                &evaluator,
                &self.front,
                buffers,
                self.options.weight_streaming,
                pool_bytes,
            )
        };
        let curve = Arc::new(curve);
        curves.insert(pool_bytes, Arc::clone(&curve));
        Ok(curve)
    }

    /// Number of distinct pool sizes with a memoised gain curve.
    #[must_use]
    pub fn cached_curves(&self) -> usize {
        self.curves.lock().expect("curve memo poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coplan::tenant_gain_curve;
    use crate::request::PlanRequest;
    use crate::StreamingMode;
    use lcmm_fpga::{Device, Precision};
    use lcmm_graph::zoo;

    fn base(graph: &Graph) -> AccelDesign {
        AccelDesign::explore(graph, &Device::vu9p(), Precision::Fix16)
    }

    #[test]
    fn replan_matches_scratch_at_several_budgets() {
        let g = zoo::alexnet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        for budget in [None, Some(0), Some(full / 3), Some(full), Some(full * 2)] {
            let delta = artifacts.replan_with_budget(&g, budget, None).unwrap();
            let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
                .options(LcmmOptions::default().with_tensor_budget(budget))
                .with_design(base(&g))
                .run()
                .unwrap();
            assert_eq!(delta.latency.to_bits(), scratch.latency.to_bits());
            assert_eq!(delta.chosen, scratch.chosen);
            assert_eq!(delta.buffers, scratch.buffers);
            assert_eq!(delta.residency, scratch.residency);
            assert_eq!(delta.split_iterations, scratch.split_iterations);
            assert_eq!(delta.resources, scratch.resources);
        }
    }

    #[test]
    fn replan_with_streaming_matches_scratch_at_several_budgets() {
        // The mode variants are derived from budget-invariant artifacts
        // (buffers + prefetch plan), so a delta replay with AutoWS must
        // reproduce the from-scratch streaming plan bit-for-bit at any
        // budget — including degenerate ones where streaming carries
        // the whole plan.
        let g = zoo::alexnet();
        let opts = LcmmOptions::default().with_weight_streaming(StreamingMode::Auto);
        let artifacts = PlanArtifacts::build(&g, base(&g), opts, None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        for budget in [
            Some(0),
            Some(crate::coplan::CAPACITY_UNIT_BYTES),
            Some(full / 8),
            Some(full / 3),
            None,
        ] {
            let delta = artifacts.replan_with_budget(&g, budget, None).unwrap();
            let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
                .options(opts.with_tensor_budget(budget))
                .with_design(base(&g))
                .run()
                .unwrap();
            assert_eq!(delta.latency.to_bits(), scratch.latency.to_bits());
            assert_eq!(delta.chosen, scratch.chosen);
            assert_eq!(delta.weight_modes, scratch.weight_modes);
            assert_eq!(delta.residency, scratch.residency);
        }
    }

    #[test]
    fn gain_curve_matches_coplan_and_memoises() {
        let g = zoo::alexnet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let pool = artifacts.design().tensor_sram_budget();
        let via_artifacts = artifacts.gain_curve(&g, pool).unwrap();
        let scratch = tenant_gain_curve(
            &g,
            artifacts.profile(),
            artifacts.design(),
            artifacts.options(),
            pool,
        );
        let a: Vec<u64> = via_artifacts.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = scratch.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        // Second request for the same pool hits the memo.
        let again = artifacts.gain_curve(&g, pool).unwrap();
        assert!(Arc::ptr_eq(&via_artifacts, &again));
        assert_eq!(artifacts.cached_curves(), 1);
    }

    #[test]
    fn narrower_pools_slice_the_widest_cached_curve_bitwise() {
        let g = zoo::alexnet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let full = artifacts.design().tensor_sram_budget();
        let wide = artifacts.gain_curve(&g, full).unwrap();
        for pool in [0, crate::coplan::CAPACITY_UNIT_BYTES, full / 2, full - 1] {
            let sliced = artifacts.gain_curve(&g, pool).unwrap();
            let fresh = tenant_gain_curve(
                &g,
                artifacts.profile(),
                artifacts.design(),
                artifacts.options(),
                pool,
            );
            let a: Vec<u64> = sliced.values().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = fresh.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "prefix diverged at pool {pool}");
            assert!(sliced.units() <= wide.units());
        }
        // Every pool size got its own memo entry.
        assert_eq!(artifacts.cached_curves(), 5);
    }

    #[test]
    fn wrong_graph_is_rejected() {
        let g = zoo::alexnet();
        let other = zoo::squeezenet();
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let err = artifacts
            .replan_with_budget(&other, None, None)
            .unwrap_err();
        assert!(matches!(err, LcmmError::InvalidRequest(_)));
    }

    #[test]
    fn same_name_and_size_is_not_the_same_graph() {
        // One conv padding changed: same name, same node count, and
        // conv1 still derives its stored 55x55 output, so it decodes.
        let g = zoo::alexnet();
        let json = serde_json::to_string(&g).unwrap();
        let conv1 = json.find("\"name\":\"conv1\"").expect("conv1 present");
        let pad = conv1 + json[conv1..].find("\"pad_h\":2").expect("conv1 pad 2");
        let edited = format!(
            "{}\"pad_h\":3{}",
            &json[..pad],
            &json[pad + "\"pad_h\":2".len()..]
        );
        let other: Graph = serde_json::from_str(&edited).unwrap();
        assert_eq!((other.name(), other.len()), (g.name(), g.len()));
        let artifacts = PlanArtifacts::build(&g, base(&g), LcmmOptions::default(), None).unwrap();
        let err = artifacts
            .replan_with_budget(&other, None, None)
            .unwrap_err();
        assert!(matches!(err, LcmmError::InvalidRequest(_)));
        assert!(artifacts.gain_curve(&other, 1 << 20).is_err());
        assert!(artifacts.replan_with_budget(&g, None, None).is_ok());
    }

    #[test]
    fn budget_in_build_options_is_normalised_away() {
        let g = zoo::alexnet();
        let opts = LcmmOptions::default().with_tensor_budget(Some(1));
        let artifacts = PlanArtifacts::build(&g, base(&g), opts, None).unwrap();
        assert_eq!(artifacts.options().tensor_budget, None);
        // The replay budget is the caller's, not the build-time one.
        let full = artifacts.replan_with_budget(&g, None, None).unwrap();
        let scratch = PlanRequest::new(&g, &Device::vu9p(), Precision::Fix16)
            .options(LcmmOptions::default())
            .with_design(base(&g))
            .run()
            .unwrap();
        assert_eq!(full.latency.to_bits(), scratch.latency.to_bits());
    }
}
