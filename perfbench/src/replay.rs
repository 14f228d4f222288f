//! The traced replay of a serve op sequence: the same public calls the
//! server makes for each op, in the same order, each timed as a span —
//! plus the direct layer call beneath every `Harness` method, so the
//! harness's own overhead shows. Nothing inside the program is
//! instrumented; its `PassStats` are read as outputs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use lcmm_core::{FusionMode, Harness, LcmmOptions, PassStats, PlanArtifacts, PlanRequest};
use lcmm_fpga::{AccelDesign, Device, Precision};
use lcmm_graph::Graph;
use lcmm_multi::{coplan, coplan_summary, CoplanOptions, TenantSpec};
use lcmm_serve::protocol::{plan_summary, precision_name};
use lcmm_serve::{FsyncPolicy, Op, PlanCache, Wal, WalRecord, WireRequest, WireResponse};
use lcmm_workload::{parse_trace, prepare, simulate, ControllerConfig, TraceSource};
use serde_json::Value;

use crate::trace::Recorder;

/// Spans of direct layer calls the server does not make itself (it
/// reaches those layers through the `Harness`); they are excluded from
/// the attributed share of an op's reply time.
const SHADOW_SPANS: [&str; 6] = [
    "fpga.explore",
    "core.umm",
    "core.plan",
    "fpga.profile",
    "fusion.plan",
    "core.replan",
];

/// Counters and pass timings gathered while replaying.
#[derive(Debug, Default)]
pub struct Tally {
    /// Uncached single-model plans replayed.
    pub plans: u64,
    /// Summed `PassStats` of the direct plan runs.
    pub passes: PassStats,
    /// Fused groups over every replayed plan.
    pub fusion_groups: u64,
    /// Resolved graph node counts (one per resolve).
    pub nodes: Vec<f64>,
    /// Harness call minus direct layer call, seconds, per uncached plan.
    pub harness_overhead: Vec<f64>,
    /// Co-plan frontier points.
    pub grid_points: u64,
    /// Simulated workload arrivals.
    pub arrivals: u64,
}

/// Adds `b`'s counters and timings into `a`.
pub fn add_pass_stats(a: &mut PassStats, b: &PassStats) {
    a.profile_seconds += b.profile_seconds;
    a.liveness_seconds += b.liveness_seconds;
    a.prefetch_seconds += b.prefetch_seconds;
    a.alloc_split_seconds += b.alloc_split_seconds;
    a.coloring_seconds += b.coloring_seconds;
    a.reporting_seconds += b.reporting_seconds;
    a.total_seconds += b.total_seconds;
    a.evaluator_calls += b.evaluator_calls;
    a.allocator_invocations += b.allocator_invocations;
    a.dnnk_dp_cells += b.dnnk_dp_cells;
    a.gain_cache_hits += b.gain_cache_hits;
    a.gain_cache_misses += b.gain_cache_misses;
    a.gain_exact_recomputes += b.gain_exact_recomputes;
    a.splits_accepted += b.splits_accepted;
    a.splits_rejected += b.splits_rejected;
}

#[derive(Debug, Clone)]
struct Registered {
    graph: Graph,
    precision: Precision,
    share: Option<f64>,
}

/// Replays serve ops against its own harness, plan cache and WAL.
#[derive(Debug)]
pub struct Replay {
    harness: Harness,
    cache: PlanCache,
    wal: Option<Wal>,
    registry: BTreeMap<String, Registered>,
    device: Device,
    /// The spans recorded so far.
    pub rec: Recorder,
    /// Counters gathered so far.
    pub tally: Tally,
}

/// The server's cache-key digest: two FNV-1a passes plus the length.
fn digest(fingerprint: &str) -> String {
    let fnv = |offset: u64| -> u64 {
        let mut hash = offset;
        for byte in fingerprint.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    };
    format!(
        "{:016x}{:016x}:{}",
        fnv(0xcbf2_9ce4_8422_2325),
        fnv(0x6c62_272e_07bb_0142),
        fingerprint.len()
    )
}

fn json<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn parse_bits(name: &str) -> Result<Precision, String> {
    match name {
        "8" => Ok(Precision::Fix8),
        "16" => Ok(Precision::Fix16),
        "32" => Ok(Precision::Float32),
        other => Err(format!("unexpected precision {other:?}")),
    }
}

/// The tenant entry of a co-plan summary whose `model` is `model`.
#[must_use]
pub fn tenant_slice(summary: &Value, model: &str) -> Option<Value> {
    summary
        .get("tenants")?
        .as_array()?
        .iter()
        .find(|t| t.get("model").and_then(Value::as_str) == Some(model))
        .cloned()
}

impl Replay {
    /// A replay with a fresh harness (`jobs` threads, as the server
    /// has workers), a plan cache of `cache_capacity`, and — when
    /// `wal_dir` is given — a WAL there with the `os` fsync policy.
    ///
    /// # Errors
    ///
    /// WAL open failures.
    pub fn new(jobs: usize, cache_capacity: usize, wal_dir: Option<&Path>) -> Result<Self, String> {
        let wal = match wal_dir {
            Some(dir) => {
                Wal::reset(dir).map_err(|e| format!("wal reset: {e}"))?;
                Some(
                    Wal::open(dir, FsyncPolicy::Os)
                        .map_err(|e| format!("wal open: {e}"))?
                        .0,
                )
            }
            None => None,
        };
        Ok(Self {
            harness: Harness::new(jobs),
            cache: PlanCache::new(cache_capacity),
            wal,
            registry: BTreeMap::new(),
            device: Device::vu9p(),
            rec: Recorder::new(),
            tally: Tally::default(),
        })
    }

    fn append(&mut self, record: &WalRecord) -> Result<(), String> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        let open = self.rec.enter("serve.wal_append");
        let out = wal.append(record);
        self.rec.exit(open);
        out.map_err(|e| format!("wal append: {e}"))
    }

    /// Replays one request line as op `op`. Returns the rebuilt `plan`
    /// payload bytes of plan, co-plan and route ops.
    ///
    /// # Errors
    ///
    /// Any failure the server would have answered with an error.
    pub fn op(&mut self, op: u64, line: &str) -> Result<Option<String>, String> {
        self.rec.set_op(op);
        let req = self
            .rec
            .time("serve.parse", || WireRequest::from_line(line))?;
        match req.op {
            Op::Plan => self.plan(&req).map(Some),
            Op::Register => self.register(&req).map(|()| None),
            Op::Unregister => self.unregister(&req).map(|()| None),
            Op::Coplan | Op::Route => self.coplan(&req).map(Some),
            Op::Workload => self.workload(&req).map(|()| None),
            other => Err(format!("op {other:?} is not replayed")),
        }
    }

    /// [`Replay::op`], plus the seconds attributed to the op: the summed
    /// duration of its top-level spans, leaving out the direct layer
    /// calls of [`SHADOW_SPANS`].
    pub fn op_attributed(&mut self, op: u64, line: &str) -> (Result<Option<String>, String>, f64) {
        let first = self.rec.spans().len();
        let rebuilt = self.op(op, line);
        let attributed = self.rec.spans()[first..]
            .iter()
            .filter(|s| s.parent.is_none() && !SHADOW_SPANS.contains(&s.name))
            .map(|s| s.duration())
            .sum();
        (rebuilt, attributed)
    }

    fn plan(&mut self, req: &WireRequest) -> Result<String, String> {
        let resolved = self
            .rec
            .time("graph.resolve", || req.resolve_plan())
            .map_err(|e| e.to_string())?;
        self.tally.nodes.push(resolved.graph.len() as f64);
        let key = self.rec.time("serve.key", || {
            digest(&format!(
                "{}\u{1}{}\u{1}{}\u{1}{}",
                json(&resolved.graph),
                json(&resolved.device),
                json(&resolved.precision),
                json(&resolved.options),
            ))
        });
        let cache = &self.cache;
        if let Some(stored) = self.rec.time("serve.cache", || cache.get(&key)) {
            self.rec.time("serve.encode", || {
                let plan: Value = serde_json::from_str(&stored).unwrap_or(Value::Null);
                WireResponse::Plan {
                    id: req.id,
                    plan,
                    cached: true,
                    pass_stats: None,
                }
                .to_line_v(req.v)
            });
            return Ok(stored);
        }
        let (graph, device, precision, options) = (
            &resolved.graph,
            &resolved.device,
            resolved.precision,
            resolved.options,
        );
        let h = &self.harness;
        let rec = &mut self.rec;
        let t = rec.enter("core.harness_design");
        let design = h.try_design(graph, device, precision);
        let mut overhead = rec.exit(t);
        let design = design.map_err(|e| e.to_string())?;
        let t = rec.enter("fpga.explore");
        let direct = AccelDesign::try_explore(graph, device, precision);
        overhead -= rec.exit(t);
        direct.map_err(|e| format!("direct explore: {e}"))?;

        let t = rec.enter("core.harness_umm");
        let umm = h.baseline_from_design(graph, &design);
        overhead += rec.exit(t);
        let t = rec.enter("core.umm");
        let direct_umm = lcmm_core::UmmBaseline::from_design(graph, (*design).clone());
        overhead -= rec.exit(t);
        std::hint::black_box(direct_umm);

        let t = rec.enter("core.harness_lcmm");
        let result = h.try_lcmm_with_design(graph, &design, options, None);
        overhead += rec.exit(t);
        let result = result.map_err(|e| e.to_string())?;
        let t = rec.enter("core.plan");
        let direct = PlanRequest::new(graph, device, precision)
            .options(options)
            .with_design((*design).clone())
            .run();
        overhead -= rec.exit(t);
        let direct = direct.map_err(|e| format!("direct plan: {e}"))?;
        self.tally.harness_overhead.push(overhead);
        add_pass_stats(&mut self.tally.passes, &direct.stats);
        self.tally.plans += 1;
        self.tally.fusion_groups += result.fusion.groups.len() as u64;

        let derated = lcmm_core::Pipeline::new(options).lcmm_design((*design).clone());
        let profile = rec.time("fpga.profile", || derated.profile(graph));
        if options.fusion == FusionMode::Auto {
            let config = lcmm_fusion::FusionConfig::from_design(&derated);
            rec.time("fusion.plan", || {
                lcmm_fusion::plan(graph, &profile, &config)
            });
        }

        let (stored, _line) = rec.time("serve.encode", || {
            let plan = plan_summary(&resolved, &result, &umm);
            let stored = json(&plan);
            let line = WireResponse::Plan {
                id: req.id,
                plan,
                cached: false,
                pass_stats: None,
            }
            .to_line_v(req.v);
            (stored, line)
        });
        let cache = &self.cache;
        let (k, v) = (key.clone(), stored.clone());
        self.rec.time("serve.cache", || cache.put(k, v));
        self.append(&WalRecord::PlanPut {
            key,
            value: stored.clone(),
            tags: Vec::new(),
        })?;
        Ok(stored)
    }

    fn register(&mut self, req: &WireRequest) -> Result<(), String> {
        let model = req.model.clone().ok_or("register without model")?;
        let spec = req.graph.as_ref().ok_or("register without graph")?;
        let graph = self
            .rec
            .time("graph.resolve", || spec.resolve())
            .map_err(|e| e.to_string())?;
        self.tally.nodes.push(graph.len() as f64);
        let precision = parse_bits(req.precision.as_deref().unwrap_or("16"))?;
        let entry = Registered {
            graph,
            precision,
            share: req.share,
        };
        let (registry, cache) = (&mut self.registry, &self.cache);
        let record = self.rec.time("serve.registry", || {
            let record = WalRecord::Register {
                model: model.clone(),
                graph_json: json(&entry.graph),
                precision: precision_name(precision).to_string(),
                weight: 1.0,
                share: entry.share,
            };
            if registry.insert(model.clone(), entry).is_none() {
                cache.invalidate_tag(&format!("model:{model}"));
            }
            record
        });
        self.append(&record)
    }

    fn unregister(&mut self, req: &WireRequest) -> Result<(), String> {
        let model = req.model.clone().ok_or("unregister without model")?;
        let (registry, cache, harness) = (&mut self.registry, &self.cache, &self.harness);
        let removed = self.rec.time("serve.registry", || {
            let removed = registry.remove(&model);
            if let Some(old) = &removed {
                cache.invalidate_tag(&format!("model:{model}"));
                harness.invalidate_graph(&old.graph);
            }
            removed
        });
        removed.ok_or_else(|| format!("unknown model {model}"))?;
        self.append(&WalRecord::Unregister { model })
    }

    fn coplan(&mut self, req: &WireRequest) -> Result<String, String> {
        let registry: Vec<(String, Registered)> = self
            .registry
            .iter()
            .map(|(n, r)| (n.clone(), r.clone()))
            .collect();
        let opts = CoplanOptions::default().with_options(LcmmOptions::default());
        let device = &self.device;
        let key = self.rec.time("serve.key", || {
            let mut fp = String::new();
            for (name, r) in &registry {
                fp.push_str(&format!(
                    "{}\u{1}{}\u{1}{}\u{1}{}\u{1}{:?}\u{2}",
                    name,
                    json(&r.graph),
                    json(&r.precision),
                    1.0,
                    r.share,
                ));
            }
            fp.push_str(&format!("{}\u{1}{}", json(device), json(&opts)));
            format!("coplan:{}", digest(&fp))
        });
        let cache = &self.cache;
        let full = match self.rec.time("serve.cache", || cache.get(&key)) {
            Some(stored) => stored,
            None => {
                let tenants: Vec<TenantSpec> = registry
                    .iter()
                    .map(|(name, r)| {
                        let t = TenantSpec::new(name.clone(), r.graph.clone(), r.precision);
                        match r.share {
                            Some(s) => t.with_share(s),
                            None => t,
                        }
                    })
                    .collect();
                let harness = &self.harness;
                let plan = self
                    .rec
                    .time("multi.coplan", || coplan(harness, device, &tenants, &opts))
                    .map_err(|e| e.to_string())?;
                self.tally.grid_points += plan.frontier.len() as u64;
                let stored = self
                    .rec
                    .time("serve.encode", || json(&coplan_summary(&plan)));
                for (t, (_, r)) in plan.tenants.iter().zip(&registry) {
                    let profile = Arc::new(t.result.design.profile(&r.graph));
                    let artifacts = PlanArtifacts::from_parts(
                        &r.graph,
                        t.result.design.clone(),
                        profile,
                        opts.options,
                        None,
                    )
                    .map_err(|e| e.to_string())?;
                    self.rec
                        .time("core.replan", || {
                            artifacts.replan_with_budget(&r.graph, Some(t.sram_budget), None)
                        })
                        .map_err(|e| e.to_string())?;
                }
                let tags: Vec<String> =
                    registry.iter().map(|(n, _)| format!("model:{n}")).collect();
                let cache = &self.cache;
                let (k, v, tg) = (key.clone(), stored.clone(), tags.clone());
                self.rec.time("serve.cache", || cache.put_tagged(k, v, tg));
                self.append(&WalRecord::PlanPut {
                    key,
                    value: stored.clone(),
                    tags,
                })?;
                stored
            }
        };
        let route = req.model.clone().filter(|_| req.op == Op::Route);
        let bytes = self.rec.time("serve.encode", || {
            let full: Value = serde_json::from_str(&full).unwrap_or(Value::Null);
            let payload = match &route {
                Some(m) => tenant_slice(&full, m).unwrap_or(Value::Null),
                None => full,
            };
            let bytes = json(&payload);
            std::hint::black_box(
                WireResponse::Plan {
                    id: req.id,
                    plan: payload,
                    cached: true,
                    pass_stats: None,
                }
                .to_line_v(req.v),
            );
            bytes
        });
        Ok(bytes)
    }

    fn workload(&mut self, req: &WireRequest) -> Result<(), String> {
        let models = req.models.clone().ok_or("workload without models")?;
        let precision = parse_bits(req.precision.as_deref().unwrap_or("16"))?;
        let mut tenants = Vec::new();
        for name in models.split(',') {
            let graph = self
                .rec
                .time("graph.resolve", || lcmm_graph::zoo::by_name(name))
                .ok_or_else(|| format!("unknown model {name}"))?;
            self.tally.nodes.push(graph.len() as f64);
            tenants.push(TenantSpec::new(name.to_string(), graph, precision));
        }
        let steps = req.steps.unwrap_or(4).clamp(2, 64) as usize;
        let opts = CoplanOptions::default()
            .with_options(LcmmOptions::default())
            .with_search_steps(steps);
        let trace = req.trace.clone().ok_or("workload without trace")?;
        let controller = ControllerConfig::default().with_enabled(req.controller.unwrap_or(true));
        let device = &self.device;
        let key = self.rec.time("serve.key", || {
            format!(
                "workload:{}",
                digest(&format!(
                    "{models}\u{1}{}\u{1}{}\u{1}{}\u{1}{trace}\u{1}{}\u{1}{steps}",
                    json(&precision),
                    json(device),
                    json(&opts.options),
                    controller.enabled,
                ))
            )
        });
        let cache = &self.cache;
        if self.rec.time("serve.cache", || cache.get(&key)).is_some() {
            return Ok(());
        }
        let harness = &self.harness;
        let grid = self
            .rec
            .time("workload.prepare", || {
                prepare(harness, device, &tenants, &opts)
            })
            .map_err(|e| e.to_string())?;
        let TraceSource::Spec(spec) =
            parse_trace(&trace, tenants.len()).map_err(|e| e.to_string())?
        else {
            return Err("workload trace must be an inline spec".to_string());
        };
        let arrivals = self.rec.time("workload.simulate", || {
            let fixed = controller.clone().with_enabled(false);
            for p in 0..grid.points.len() {
                std::hint::black_box(simulate(&grid, &spec, &fixed, p));
            }
            let run = simulate(&grid, &spec, &controller, grid.even_point());
            run.tenants.iter().map(|t| t.arrivals).sum::<u64>()
        });
        self.tally.arrivals += arrivals;
        let cache = &self.cache;
        self.rec
            .time("serve.cache", || cache.put(key, String::new()));
        Ok(())
    }
}
