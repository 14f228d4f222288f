//! `scale-plan`: the library path, one thread, a closed loop over a
//! seeded item list — the nine Table 1 cells at default options plus
//! thousand-node synthetic graphs at 1/8 of the SRAM budget. Each item
//! builds its graph, explores the design, plans, evaluates the UMM
//! baseline and simulates the plan once. Serve, cache and WAL do
//! nothing here.

use std::time::Instant;

use lcmm_core::paper::table1_row;
use lcmm_core::{FusionMode, LcmmOptions, LcmmResult, PlanRequest, StreamingMode, UmmBaseline};
use lcmm_fpga::{AccelDesign, Device, Precision};
use lcmm_graph::Graph;
use lcmm_sim::audit::{check_result_invariants, ToleranceBands};
use lcmm_sim::validate::{effective_profile, fused_tiles, weight_classes};
use lcmm_sim::{SimConfig, Simulator};

use crate::checks::Ledger;
use crate::common::{end_to_end, Setups, Timed, MIN_SAMPLES, SETUPS_AFTER, SETUPS_BEFORE};
use crate::gen::{self, ScaleItem, SCALE_BLOCK, SCALE_BUDGET_DIVISOR};
use crate::layers;
use crate::replay::add_pass_stats;
use crate::report::Outcome;
use crate::stats::mean;
use crate::trace::Recorder;

/// Item blocks generated per run (more than a run gets through).
const BLOCKS: usize = 200;
/// The modelled metrics cover the distinct plans of this many blocks.
const MODEL_BLOCKS: usize = 16;
/// Blocks of the traced run.
const TRACE_BLOCKS: usize = 8;
/// One more set-up is timed (outside the timed phase) after every this
/// many items: about once a second on the reference box. Single repeats
/// spread over the run sample more of the host's speed phases than
/// back-to-back ones would.
const SETUP_EVERY: usize = 4 * SCALE_BLOCK;
/// Seed offset of the warm-up items (never timed).
const WARMUP_SEED: u64 = 0x5eed;

/// What one item produced.
struct Planned {
    graph: Graph,
    result: LcmmResult,
    umm: UmmBaseline,
    /// The budget the knapsack planned against.
    budget: u64,
    /// Simulated steady latency ÷ analytic latency.
    sim_ratio: f64,
}

fn precision(bits: u8) -> Precision {
    match bits {
        8 => Precision::Fix8,
        32 => Precision::Float32,
        _ => Precision::Fix16,
    }
}

/// Runs `f`, as a span of `rec` when tracing.
fn timed<T>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.time(name, f),
        None => f(),
    }
}

/// Runs one item, timing each layer call as a span when `rec` is set.
fn run_item(
    item: &ScaleItem,
    device: &Device,
    rec: &mut Option<&mut Recorder>,
) -> Result<Planned, String> {
    let p = precision(item.bits);
    let graph = timed(rec, "graph.resolve", || {
        lcmm_graph::zoo::by_name(&item.graph)
    })
    .ok_or_else(|| format!("unknown graph {}", item.graph))?;
    let design = timed(rec, "fpga.explore", || {
        AccelDesign::try_explore(&graph, device, p)
    })
    .map_err(|e| format!("{}: explore: {e}", item.graph))?;
    let mut options = LcmmOptions::default();
    if item.reduced_budget {
        options =
            options.with_tensor_budget(Some(design.tensor_sram_budget() / SCALE_BUDGET_DIVISOR));
    }
    if !item.table1 {
        let (f, s) = if item.auto {
            (FusionMode::Auto, StreamingMode::Auto)
        } else {
            (FusionMode::Off, StreamingMode::Off)
        };
        options = options.with_fusion(f).with_weight_streaming(s);
    }
    let result = timed(rec, "core.plan", || {
        PlanRequest::new(&graph, device, p)
            .options(options)
            .with_design(design.clone())
            .run()
    })
    .map_err(|e| format!("{}: plan: {e}", item.graph))?;
    let umm = timed(rec, "core.umm", || {
        UmmBaseline::from_design(&graph, design.clone())
    });
    let profile = timed(rec, "fpga.profile", || effective_profile(&graph, &result));
    let steady = timed(rec, "sim.run", || {
        let config = SimConfig::default()
            .with_inferences(2)
            .with_weight_classes(weight_classes(&result))
            .with_prefetch(result.prefetch.clone())
            .with_fused_tiles(fused_tiles(&result));
        Simulator::new(&graph, &profile)
            .run(&result.residency, &config)
            .steady_latency
    });
    let sim_ratio = steady / result.latency;
    // The knapsack plans against the derated design's budget, clamped
    // by an explicit tensor budget.
    let own = result.design.tensor_sram_budget();
    Ok(Planned {
        budget: options.tensor_budget.map_or(own, |b| b.min(own)),
        graph,
        result,
        umm,
        sim_ratio,
    })
}

/// The output checks of one item.
fn check_item(item: &ScaleItem, planned: &Planned) -> Result<(), String> {
    let name = &item.graph;
    let findings = check_result_invariants(&planned.graph, &planned.result, planned.budget);
    if let Some(f) = findings.first() {
        return Err(format!(
            "{name}: audit finding {f:?} (of {})",
            findings.len()
        ));
    }
    let bands = ToleranceBands::default();
    if !(bands.floor..=bands.lcmm_ceiling).contains(&planned.sim_ratio) {
        return Err(format!(
            "{name}: simulated/analytic ratio {} outside [{}, {}]",
            planned.sim_ratio, bands.floor, bands.lcmm_ceiling
        ));
    }
    if item.table1 {
        // UMM re-evaluated at the LCMM clock: LCMM never loses to it.
        let umm_at_lcmm_clock = planned
            .result
            .design
            .profile(&planned.graph)
            .total_latency();
        if planned.result.latency > umm_at_lcmm_clock + 1e-12 {
            return Err(format!(
                "{name}: LCMM latency {} above UMM at the LCMM clock {umm_at_lcmm_clock}",
                planned.result.latency
            ));
        }
    }
    Ok(())
}

/// The item list, plus a warm-up run of the nine Table 1 cells and two
/// items of the smaller synthetic class drawn from another seed.
fn start(seed: u64, blocks: usize, device: &Device) -> Result<Vec<ScaleItem>, String> {
    let items = gen::scale_items(seed, blocks);
    let warmup = gen::scale_items(seed ^ WARMUP_SEED, 1);
    let small = warmup.iter().filter(|i| {
        let depth = i
            .graph
            .strip_prefix("synthetic:")
            .and_then(|g| g.split('x').next());
        depth
            .and_then(|d| d.parse::<usize>().ok())
            .is_some_and(|d| d < gen::SCALE_DEPTHS[1] / 2)
    });
    for item in warmup.iter().filter(|i| i.table1).chain(small.take(2)) {
        run_item(item, device, &mut None)?;
    }
    Ok(items)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (item failures count as failed ops instead).
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let device = Device::vu9p();
    let blocks = if trace { TRACE_BLOCKS } else { BLOCKS };
    let mut setups = Setups::default();
    let items = setups.repeat(
        SETUPS_BEFORE,
        process_start,
        || start(seed, blocks, &device),
        drop,
    )?;
    let mut ledger = Ledger::default();
    let mut outcome = Outcome::default();
    if !trace {
        let mut timed = Timed::default();
        let mut table1_seen = std::collections::HashSet::new();
        for (i, item) in items.iter().enumerate() {
            if i >= MIN_SAMPLES && timed.wall_s >= seconds {
                break;
            }
            if i > 0 && i % SETUP_EVERY == 0 {
                setups.discard(1, || start(seed, blocks, &device), drop)?;
            }
            // Checks run between items, outside the timed phase.
            let cpu0 = crate::sys::cpu_seconds();
            let t0 = Instant::now();
            let planned = run_item(item, &device, &mut None);
            let latency = t0.elapsed().as_secs_f64();
            timed.cpu_s += crate::sys::cpu_seconds() - cpu0;
            timed.wall_s += latency;
            timed.latencies.push(latency);
            ledger.record(planned.and_then(|p| {
                // Table 1 cells repeat in every block; count them once.
                let distinct = !item.table1 || table1_seen.insert((item.graph.clone(), item.bits));
                if i < MODEL_BLOCKS * SCALE_BLOCK && distinct {
                    timed.modelled.push((p.result.latency, p.umm.latency));
                }
                check_item(item, &p)
            }));
        }
        timed.peak_rss_mb = crate::sys::peak_rss_mb();
        setups.discard(SETUPS_AFTER, || start(seed, blocks, &device), drop)?;
        timed.setups = setups;
        end_to_end(
            &mut outcome.values,
            &timed,
            (ledger.attempted - ledger.failed, ledger.attempted),
            // Few items: the p99 of the whole phase spreads less than a
            // median of three or four window p99s.
            usize::MAX,
            &mut outcome.notes,
        );
    } else {
        let mut values = layers::zeroed();
        let mut plain = 0.0;
        for item in &items {
            let t0 = Instant::now();
            let planned = run_item(item, &device, &mut None);
            plain += t0.elapsed().as_secs_f64();
            ledger.record(planned.and_then(|p| check_item(item, &p)));
        }
        let mut rec = Recorder::new();
        let mut tally = crate::replay::Tally::default();
        let (mut traced, mut ratio_max, mut paper_dev) = (0.0, 0.0f64, Vec::new());
        for (i, item) in items.iter().enumerate() {
            rec.set_op(i as u64);
            let open = rec.enter("scale.item");
            let planned = run_item(item, &device, &mut Some(&mut rec));
            traced += rec.exit(open);
            let planned = match planned {
                Ok(p) => p,
                Err(e) => {
                    ledger.record(Err(e));
                    continue;
                }
            };
            if item.auto {
                // The fusion planner has no timer of its own inside the
                // pipeline: time it directly on the derated design,
                // outside the item's span so the tracing overhead does
                // not count it.
                let profile = planned.result.design.profile(&planned.graph);
                let config = lcmm_fusion::FusionConfig::from_design(&planned.result.design);
                rec.time("fusion.plan", || {
                    lcmm_fusion::plan(&planned.graph, &profile, &config)
                });
            }
            tally.plans += 1;
            add_pass_stats(&mut tally.passes, &planned.result.stats);
            tally.fusion_groups += planned.result.fusion.groups.len() as u64;
            tally.nodes.push(planned.graph.len() as f64);
            ratio_max = ratio_max.max(planned.sim_ratio);
            if i < SCALE_BLOCK && item.table1 {
                let row = table1_row(&item.graph, precision(item.bits))
                    .ok_or_else(|| format!("{} has no Table 1 row", item.graph))?;
                let speedup = planned.umm.latency / planned.result.latency;
                paper_dev.push((speedup - row.speedup).abs() / row.speedup * 100.0);
            }
            ledger.record(check_item(item, &planned));
        }
        layers::span_means(&mut values, &rec);
        layers::tally_values(&mut values, &tally);
        values.insert("sim.ratio_max", ratio_max);
        values.insert("core.paper_dev_pct", mean(&paper_dev));
        values.insert("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
        values.insert("trace.ops", items.len() as f64);
        crate::write_spans("scale-plan", seed, &rec, &[]);
        outcome.values = values;
    }
    ledger.close(&mut outcome);
    Ok(outcome)
}
