//! Seeded input generators. Each workload's inputs are a pure function
//! of the seed; the program only ever sees the generated request lines
//! or graph specs.

use crate::rng::Rng;

/// Stream tags keep the workloads' draws independent of each other.
const COLD_STREAM: u64 = 1;
const WARM_STREAM: u64 = 2;
const SCALE_STREAM: u64 = 3;

/// Bytes per MiB.
const MIB: u64 = 1 << 20;

// ---------------------------------------------------------------- cold

/// Synthetic depths of the cold-plan graphs.
const COLD_DEPTHS: [usize; 3] = [32, 64, 128];
/// Synthetic branch caps of the cold-plan graphs.
const COLD_BRANCHES: [usize; 3] = [2, 3, 4];
/// Wire precisions.
const PRECISIONS: [&str; 3] = ["8", "16", "32"];
/// One in this many cold ops uses the `+res` generator.
const COLD_RES_SLOTS: usize = 4;
/// Of this many option slots, [`COLD_OPTION_SLOTS_SET`] set options.
const COLD_OPTION_SLOTS: usize = 5;
const COLD_OPTION_SLOTS_SET: usize = 2;

/// Ops per stratified cold-plan block: every (depth, branching,
/// precision, residual slot, option slot) combination exactly once.
pub const COLD_BLOCK: usize =
    COLD_DEPTHS.len() * COLD_BRANCHES.len() * PRECISIONS.len() * COLD_RES_SLOTS * COLD_OPTION_SLOTS;

/// One generated plan request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOp {
    /// The request line (id first, no trailing newline).
    pub line: String,
    /// Its `tensor_budget`, when set.
    pub tensor_budget: Option<u64>,
}

/// A plan request line for `graph` at `precision` with optional
/// fusion / streaming / budget options.
fn plan_line(id: u64, graph: &str, precision: &str, options: Option<(&str, &str, u64)>) -> PlanOp {
    let mut line = format!(r#"{{"id":{id},"graph":"{graph}","precision":"{precision}""#);
    if let Some((fusion, streaming, budget)) = options {
        line.push_str(&format!(
            r#","options":{{"fusion":"{fusion}","weight_streaming":"{streaming}","tensor_budget":{budget}}}"#
        ));
    }
    line.push('}');
    PlanOp {
        line,
        tensor_budget: options.map(|o| o.2),
    }
}

/// The cold-plan op list: `blocks` stratified blocks of distinct
/// synthetic graphs (ids `1..`), each block shuffled by the seed. Every
/// graph seed is drawn fresh, so every op misses the plan cache.
#[must_use]
pub fn cold_ops(seed: u64, blocks: usize) -> Vec<PlanOp> {
    let mut rng = Rng::new(seed, COLD_STREAM);
    let mut out = Vec::with_capacity(blocks * COLD_BLOCK);
    for _ in 0..blocks {
        let mut combos: Vec<usize> = (0..COLD_BLOCK).collect();
        rng.shuffle(&mut combos);
        for c in combos {
            let id = out.len() as u64 + 1;
            out.push(cold_op(&mut rng, id, c));
        }
    }
    out
}

/// Warm-up ops for the cold-plan server: distinct from every timed op
/// (ids and graph seeds from their own stream).
#[must_use]
pub fn cold_warmup(seed: u64, count: usize) -> Vec<PlanOp> {
    let mut rng = Rng::new(seed, COLD_STREAM + 100);
    (0..count)
        .map(|i| cold_op(&mut rng, 1_000_000 + i as u64, i * 37 % COLD_BLOCK))
        .collect()
}

fn cold_op(rng: &mut Rng, id: u64, combo: usize) -> PlanOp {
    let mut c = combo;
    let mut take = |n: usize| {
        let v = c % n;
        c /= n;
        v
    };
    let depth = COLD_DEPTHS[take(COLD_DEPTHS.len())];
    let branching = COLD_BRANCHES[take(COLD_BRANCHES.len())];
    let precision = PRECISIONS[take(PRECISIONS.len())];
    let res = take(COLD_RES_SLOTS) == 0;
    let with_options = take(COLD_OPTION_SLOTS) < COLD_OPTION_SLOTS_SET;
    let graph_seed = rng.next_u64() >> 16;
    let graph = format!(
        "synthetic:{depth}x{branching}x{graph_seed}{}",
        if res { "+res" } else { "" }
    );
    let options = with_options.then(|| {
        let fusion = ["off", "auto"][rng.below(2)];
        let streaming = ["off", "pinned", "auto"][rng.below(3)];
        let budget = [1, 4, 16][rng.below(3)] * MIB;
        (fusion, streaming, budget)
    });
    plan_line(id, &graph, precision, options)
}

// ---------------------------------------------------------------- warm

/// The paper's Table 1 cells: three networks at three precisions.
pub const TABLE1_MODELS: [&str; 3] = ["resnet152", "googlenet", "inception_v4"];

/// Zoo models added to the warm-mix hot set. Like most Table 1 cells
/// they are graphs of 140–190 nodes, so hits cost about the same and
/// the median latency lies inside one cluster rather than between a
/// cheap and an expensive one.
const WARM_EXTRA_MODELS: [&str; 3] = ["resnet101", "densenet121", "inception_resnet_v2"];
/// Seeded synthetic plans of the same size added to the hot set.
const WARM_EXTRA_SYNTHETIC: usize = 2;

/// Co-planned tenants: (name, zoo graph).
pub const WARM_TENANTS: [(&str, &str); 4] = [
    ("t0", "alexnet"),
    ("t1", "squeezenet"),
    ("t2", "mobilenet"),
    ("t3", "googlenet"),
];
/// The one tenant registry writes churn; routes ask for the others, so
/// a route can never race its tenant's removal, and every co-plan miss
/// re-plans the same tenant (the misses form one cluster of costs).
pub const WARM_CHURNED: usize = 3;

/// Equal explicit compute share of every co-planned tenant.
pub const TENANT_SHARE: f64 = 0.25;

/// Models of the workload-simulation op.
pub const WARM_WORKLOAD_MODELS: &str = "alexnet,squeezenet";

/// What one warm-mix line does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmKind {
    /// A plan over hot-set entry `n`.
    Plan(usize),
    /// Unregister tenant `n` (always followed by its re-register).
    Unregister(usize),
    /// Register tenant `n`.
    Register(usize),
    /// Co-plan the registry.
    Coplan,
    /// Route tenant `n`'s slice.
    Route(usize),
    /// A workload simulation over a fresh inline trace.
    Workload,
}

/// One warm-mix line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmOp {
    /// The request id.
    pub id: u64,
    /// The request line.
    pub line: String,
    /// What it does.
    pub kind: WarmKind,
}

/// The warm-mix inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmSpec {
    /// Hot-set plan request bodies (a request line minus `"id":N,`).
    pub hot: Vec<String>,
    /// Timed lines, in send order.
    pub ops: Vec<WarmOp>,
}

/// Lines per stratified warm-mix block: 90 plans, 2 writes (an
/// unregister plus a register each), 1 co-plan, 2 routes and 3
/// workload ops.
pub const WARM_BLOCK: usize = 100;

/// The register line body of tenant `t`.
#[must_use]
pub fn register_body(t: usize) -> String {
    let (name, graph) = WARM_TENANTS[t];
    format!(
        r#""op":"register","model":"{name}","graph":"{graph}","precision":"16","share":{TENANT_SHARE}"#
    )
}

/// The warm-mix inputs for `seed`: `blocks` blocks of timed lines (ids
/// from `first_id`).
#[must_use]
pub fn warm_spec(seed: u64, blocks: usize, first_id: u64) -> WarmSpec {
    let mut rng = Rng::new(seed, WARM_STREAM);
    let mut hot = Vec::new();
    for model in TABLE1_MODELS {
        for p in PRECISIONS {
            hot.push(format!(r#""graph":"{model}","precision":"{p}""#));
        }
    }
    for model in WARM_EXTRA_MODELS {
        hot.push(format!(r#""graph":"{model}","precision":"16""#));
    }
    for _ in 0..WARM_EXTRA_SYNTHETIC {
        let s = rng.next_u64() >> 16;
        hot.push(format!(r#""graph":"synthetic:192x3x{s}","precision":"16""#));
    }

    #[derive(Clone, Copy)]
    enum Item {
        Plan,
        Write,
        Coplan,
        Route,
        Workload,
    }
    // The non-plan items keep this order inside every block, so each
    // block has exactly two co-plan misses (the first co-plan or route
    // after each write). They sit at fixed slots, one every `GAP` items
    // (30 ms apart at 400 lines/s), so no two expensive ops overlap: the
    // tail is their service time plus the wait of the hits behind one of
    // them, which scales with host speed instead of jumping whenever two
    // misses happen to land together. The seed picks the plans, routes
    // and traces.
    const TAIL: [Item; 8] = [
        Item::Write,
        Item::Coplan,
        Item::Workload,
        Item::Route,
        Item::Write,
        Item::Route,
        Item::Workload,
        Item::Workload,
    ];
    const PLANS: usize = 90;
    const GAP: usize = (PLANS + TAIL.len()) / TAIL.len();

    let mut ops = Vec::with_capacity(blocks * WARM_BLOCK);
    let mut next_id = first_id;
    let mut push = |ops: &mut Vec<WarmOp>, body: String, kind: WarmKind| {
        ops.push(WarmOp {
            id: next_id,
            line: format!(r#"{{"id":{next_id},{body}}}"#),
            kind,
        });
        next_id += 1;
    };
    for _ in 0..blocks {
        let items = (0..PLANS + TAIL.len()).map(|k| match TAIL.get(k / GAP) {
            Some(&tail) if k % GAP == GAP / 2 => tail,
            _ => Item::Plan,
        });
        for item in items {
            match item {
                Item::Plan => {
                    let h = rng.below(hot.len());
                    push(&mut ops, hot[h].clone(), WarmKind::Plan(h));
                }
                Item::Write => {
                    let t = WARM_CHURNED;
                    let name = WARM_TENANTS[t].0;
                    push(
                        &mut ops,
                        format!(r#""op":"unregister","model":"{name}""#),
                        WarmKind::Unregister(t),
                    );
                    push(&mut ops, register_body(t), WarmKind::Register(t));
                }
                Item::Coplan => push(&mut ops, r#""op":"coplan""#.to_string(), WarmKind::Coplan),
                Item::Route => {
                    let t = rng.below(WARM_CHURNED);
                    let name = WARM_TENANTS[t].0;
                    push(
                        &mut ops,
                        format!(r#""op":"route","model":"{name}""#),
                        WarmKind::Route(t),
                    );
                }
                Item::Workload => {
                    // Fresh rates make every trace distinct: each op
                    // misses the cache and simulates.
                    let r0 = 40.0 + 80.0 * rng.unit();
                    let r1 = 40.0 + 80.0 * rng.unit();
                    push(
                        &mut ops,
                        format!(
                            r#""op":"workload","models":"{WARM_WORKLOAD_MODELS}","trace":"poisson:{r0:.6};poisson:{r1:.6}""#
                        ),
                        WarmKind::Workload,
                    );
                }
            }
        }
    }
    WarmSpec { hot, ops }
}

// --------------------------------------------------------------- scale

/// Nominal node counts of the scale-plan graphs. Each graph's depth is
/// drawn within ±[`SCALE_DEPTH_SPREAD`] of its class, stratified across
/// the class's items in a block, so item costs form a continuum: a
/// quantile then moves smoothly with host speed instead of jumping
/// between clusters, and a block's total work stays nearly constant.
pub const SCALE_DEPTHS: [usize; 2] = [1024, 4096];
/// Relative depth spread around each class's nominal depth.
pub const SCALE_DEPTH_SPREAD: f64 = 0.25;
/// Branch cap of the scale-plan graphs.
pub const SCALE_BRANCHING: usize = 4;
/// The SRAM fraction synthetic scale items plan against.
pub const SCALE_BUDGET_DIVISOR: u64 = 8;

/// One scale-plan item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleItem {
    /// Zoo name or `synthetic:` spec.
    pub graph: String,
    /// Precision in bits (8, 16 or 32).
    pub bits: u8,
    /// Plan at 1/[`SCALE_BUDGET_DIVISOR`] of the design's SRAM budget.
    pub reduced_budget: bool,
    /// Fusion and weight streaming both `auto` (else both `off`).
    pub auto: bool,
    /// One of the paper's Table 1 cells (default options).
    pub table1: bool,
}

/// Copies of every (residual, mode) synthetic combination per block,
/// per depth: the 1024-node graphs outnumber the rest, so the median
/// item lies inside one cluster rather than between two.
pub const SCALE_COPIES: [usize; 2] = [3, 1];

/// Items per scale-plan block: the nine Table 1 cells plus
/// [`SCALE_COPIES`] of every (size, residual, mode) synthetic
/// combination.
pub const SCALE_BLOCK: usize = 9 + (SCALE_COPIES[0] + SCALE_COPIES[1]) * 2 * 2;

/// `blocks` shuffled scale-plan blocks; every synthetic item draws a
/// fresh graph seed.
#[must_use]
pub fn scale_items(seed: u64, blocks: usize) -> Vec<ScaleItem> {
    let mut rng = Rng::new(seed, SCALE_STREAM);
    let mut out = Vec::with_capacity(blocks * SCALE_BLOCK);
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(SCALE_BLOCK);
        for model in TABLE1_MODELS {
            for bits in [8, 16, 32] {
                block.push(ScaleItem {
                    graph: model.to_string(),
                    bits,
                    reduced_budget: false,
                    auto: false,
                    table1: true,
                });
            }
        }
        for (depth, copies) in SCALE_DEPTHS.into_iter().zip(SCALE_COPIES) {
            let variants = [(false, false), (false, true), (true, false), (true, true)];
            let n = copies * variants.len();
            let mut strata: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut strata);
            for (k, &(res, auto)) in strata.iter().zip(variants.iter().cycle()) {
                let at = (*k as f64 + rng.unit()) / n as f64;
                let scale = 1.0 - SCALE_DEPTH_SPREAD + 2.0 * SCALE_DEPTH_SPREAD * at;
                let d = (depth as f64 * scale).round() as usize;
                let s = rng.next_u64() >> 16;
                block.push(ScaleItem {
                    graph: format!(
                        "synthetic:{d}x{SCALE_BRANCHING}x{s}{}",
                        if res { "+res" } else { "" }
                    ),
                    bits: 16,
                    reduced_budget: true,
                    auto,
                    table1: false,
                });
            }
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}
