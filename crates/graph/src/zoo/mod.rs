//! Model zoo: the paper's benchmark networks, built layer by layer.
//!
//! The LCMM paper evaluates on ResNet-152 (`RN`), GoogLeNet (`GN`) and
//! Inception-v4 (`IN`), and compares against prior art on ResNet-50.
//! AlexNet and VGG-16 are included as the linear-topology counterpoints
//! that the introduction argues uniform double-buffering was designed for.
//!
//! All builders produce batch-1 inference graphs at the canonical ImageNet
//! input resolution (224×224, or 299×299 for Inception-v4), with ReLU and
//! batch-norm folded into the convolutions.

mod alexnet;
mod densenet;
mod googlenet;
mod inception_resnet;
mod inception_v4;
mod mobilenet;
mod resnet;
mod squeezenet;
mod synthetic;
mod vgg;

pub use alexnet::alexnet;
pub use densenet::densenet121;
pub use googlenet::googlenet;
pub use inception_resnet::inception_resnet_v2;
pub use inception_v4::inception_v4;
pub use mobilenet::mobilenet;
pub use resnet::{resnet101, resnet152, resnet50};
pub use squeezenet::squeezenet;
pub use synthetic::{synthetic, synthetic_scaled, synthetic_shortcut};
pub use vgg::vgg16;

use crate::Graph;
use std::sync::OnceLock;

/// The paper's Table 1 benchmark suite: ResNet-152, GoogLeNet,
/// Inception-v4, in that order.
#[must_use]
pub fn benchmark_suite() -> Vec<Graph> {
    ["resnet152", "googlenet", "inception_v4"]
        .iter()
        .filter_map(|name| by_name(name))
        .collect()
}

/// Every named model in the zoo, smallest first — the audit grid walks
/// this list so a divergence in a cheap linear model fails fast before
/// the expensive inception builds run.
#[must_use]
pub fn full_zoo() -> Vec<Graph> {
    (0..MODELS.len()).map(shared).collect()
}

/// Canonical short names of every zoo model, in [`full_zoo`] order —
/// for CLI error messages and docs (the parameterised `synthetic:*`
/// specs accepted by [`by_name`] are not listed).
#[must_use]
pub fn names() -> &'static [&'static str] {
    &[
        "alexnet",
        "mobilenet",
        "squeezenet",
        "vgg16",
        "googlenet",
        "densenet121",
        "resnet50",
        "resnet101",
        "resnet152",
        "inception_v4",
        "inception_resnet_v2",
    ]
}

/// A zoo model's builder.
type Builder = fn() -> Graph;

/// The builder of each model in [`names`] order, with the aliases
/// [`by_name`] accepts besides the canonical name.
const MODELS: [(Builder, &[&str]); 11] = [
    (alexnet, &[]),
    (mobilenet, &["mn"]),
    (squeezenet, &["sq"]),
    (vgg16, &["vgg"]),
    (googlenet, &["gn"]),
    (densenet121, &["densenet", "dn"]),
    (resnet50, &[]),
    (resnet101, &[]),
    (resnet152, &["rn"]),
    (inception_v4, &["inception-v4", "in"]),
    (inception_resnet_v2, &["irv2"]),
];

/// Each zoo model, built (and its id computed) by its first lookup.
static BUILT: [OnceLock<Graph>; MODELS.len()] = [const { OnceLock::new() }; MODELS.len()];

/// The process-wide shared graph of zoo model `index`: a handle clone.
fn shared(index: usize) -> Graph {
    shared_in(&BUILT[index], MODELS[index].0)
}

/// The graph in `cell`, built by `build` on first use. Racing first
/// callers block until one build finishes, then all share its result.
fn shared_in(cell: &OnceLock<Graph>, build: Builder) -> Graph {
    cell.get_or_init(|| {
        let graph = build();
        let _ = graph.id();
        graph
    })
    .clone()
}

/// Looks a model up by its short name, as used by the CLI.
///
/// Recognised names: `alexnet`, `vgg16`, `resnet50`, `resnet101`,
/// `resnet152`, `googlenet`, `inception_v4` (aliases `rn`, `gn`, `in`),
/// plus parameterised scale workloads `synthetic:<depth>x<branching>x<seed>`
/// (e.g. `synthetic:1024x4x7`), optionally width-scaled with an
/// `@<percent>` suffix (e.g. `synthetic:1024x4x7@50`) and/or tilted
/// toward residual diamonds with a `+res` suffix (e.g.
/// `synthetic:1024x4x7@50+res`, see [`synthetic_shortcut`]).
///
/// A fixed zoo model is built once per process and shared: every
/// lookup of it (by any alias) returns a handle on the same graph, its
/// [`Graph::id`] already computed. Synthetic specs build a fresh graph
/// on every call — their key space is unbounded.
#[must_use]
pub fn by_name(name: &str) -> Option<Graph> {
    if let Some(spec) = name
        .strip_prefix("synthetic:")
        .or_else(|| name.strip_prefix("synthetic_"))
    {
        let (spec, shortcut) = match spec.strip_suffix("+res") {
            Some(head) => (head, true),
            None => (spec, false),
        };
        let (spec, width_percent) = match spec.split_once('@') {
            Some((head, scale)) => (head, scale.parse().ok()?),
            None => (spec, 100),
        };
        let mut parts = spec.split('x');
        let depth: usize = parts.next()?.parse().ok()?;
        let branching: usize = parts.next()?.parse().ok()?;
        let seed: u64 = parts.next()?.parse().ok()?;
        if parts.next().is_some() || depth == 0 || width_percent == 0 {
            return None;
        }
        return Some(if shortcut {
            synthetic_shortcut(depth, branching, seed, width_percent)
        } else {
            synthetic_scaled(depth, branching, seed, width_percent)
        });
    }
    let name = name.to_ascii_lowercase();
    let index =
        (0..MODELS.len()).find(|&i| names()[i] == name || MODELS[i].1.contains(&name.as_str()))?;
    Some(shared(index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn by_name_resolves_aliases() {
        assert_eq!(by_name("RN").unwrap().name(), "resnet152");
        assert_eq!(by_name("gn").unwrap().name(), "googlenet");
        assert_eq!(by_name("in").unwrap().name(), "inception_v4");
        assert!(by_name("lenet").is_none());
    }

    #[test]
    fn by_name_parses_synthetic_specs() {
        let g = by_name("synthetic:128x4x7").unwrap();
        assert_eq!(g.name(), "synthetic_128x4x7");
        assert!(g.len() >= 128);
        assert!(by_name("synthetic:128x4").is_none(), "missing seed");
        assert!(by_name("synthetic:0x4x7").is_none(), "zero depth");
        assert!(by_name("synthetic:ax4x7").is_none(), "non-numeric");
        assert!(by_name("synthetic:1x2x3x4").is_none(), "extra field");
    }

    #[test]
    fn by_name_parses_width_scaled_synthetic_specs() {
        let g = by_name("synthetic:128x4x7@50").unwrap();
        assert_eq!(g.name(), "synthetic_128x4x7@50");
        assert!(by_name("synthetic:128x4x7@0").is_none(), "zero scale");
        assert!(by_name("synthetic:128x4x7@").is_none(), "empty scale");
        assert!(by_name("synthetic:128x4x7@abc").is_none(), "non-numeric");
    }

    #[test]
    fn by_name_parses_shortcut_heavy_synthetic_specs() {
        let g = by_name("synthetic:128x2x7+res").unwrap();
        assert_eq!(g.name(), "synthetic_128x2x7+res");
        // Round-trips through its own name, like every zoo model.
        assert_eq!(by_name(g.name()).unwrap().len(), g.len());
        // Composes with width scaling, in `@W%` then `+res` order.
        let scaled = by_name("synthetic:128x2x7@50+res").unwrap();
        assert_eq!(scaled.name(), "synthetic_128x2x7@50+res");
        assert!(by_name("synthetic:128x2x7+res@50").is_none(), "wrong order");
        assert!(by_name("synthetic:+res").is_none(), "missing spec");
    }

    #[test]
    fn full_zoo_covers_every_named_model() {
        let zoo = full_zoo();
        assert_eq!(zoo.len(), 11);
        for g in &zoo {
            let again = by_name(g.name()).expect("zoo models resolve by name");
            assert_eq!(again.len(), g.len());
        }
    }

    /// Two handles share storage when their first nodes are one object.
    fn same_storage(a: &Graph, b: &Graph) -> bool {
        std::ptr::eq(a.node(NodeId::new(0)), b.node(NodeId::new(0)))
    }

    #[test]
    fn by_name_shares_one_graph_equal_to_a_fresh_build() {
        let table: [(&str, Builder); 22] = [
            ("alexnet", alexnet),
            ("mobilenet", mobilenet),
            ("mn", mobilenet),
            ("squeezenet", squeezenet),
            ("sq", squeezenet),
            ("vgg16", vgg16),
            ("vgg", vgg16),
            ("googlenet", googlenet),
            ("gn", googlenet),
            ("densenet121", densenet121),
            ("densenet", densenet121),
            ("dn", densenet121),
            ("resnet50", resnet50),
            ("resnet101", resnet101),
            ("resnet152", resnet152),
            ("rn", resnet152),
            ("inception_v4", inception_v4),
            ("inception-v4", inception_v4),
            ("in", inception_v4),
            ("inception_resnet_v2", inception_resnet_v2),
            ("irv2", inception_resnet_v2),
            ("IRV2", inception_resnet_v2),
        ];
        for name in names() {
            assert!(table.iter().any(|(n, _)| n == name), "{name} untested");
        }
        for (name, build) in table {
            let fresh = build();
            let shared = by_name(name).expect("zoo name resolves");
            assert_eq!(shared.id(), fresh.id(), "{name}");
            assert_eq!(shared.to_json(), fresh.to_json(), "{name}");
            let canonical = by_name(fresh.name()).expect("canonical name resolves");
            assert!(same_storage(&shared, &canonical), "{name}");
            assert!(!same_storage(&shared, &fresh), "{name}");
        }
    }

    #[test]
    fn synthetic_specs_build_afresh() {
        let a = by_name("synthetic:32x2x7").unwrap();
        let b = by_name("synthetic:32x2x7").unwrap();
        assert_eq!(a.id(), b.id());
        assert!(!same_storage(&a, &b));
    }

    #[test]
    fn racing_first_lookups_share_one_build() {
        static CELL: OnceLock<Graph> = OnceLock::new();
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        fn counted() -> Graph {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            alexnet()
        }
        let race = |lookup: &(dyn Fn() -> Graph + Sync)| {
            let barrier = Barrier::new(2);
            thread::scope(|s| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            lookup()
                        })
                    })
                    .collect();
                let graphs: Vec<Graph> = racers.into_iter().map(|r| r.join().unwrap()).collect();
                assert!(same_storage(&graphs[0], &graphs[1]));
            });
        };
        race(&|| shared_in(&CELL, counted));
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1);
        race(&|| by_name("inception_resnet_v2").unwrap());
    }

    #[test]
    fn benchmark_suite_is_the_paper_trio() {
        let names: Vec<String> = benchmark_suite()
            .iter()
            .map(|g| g.name().to_string())
            .collect();
        assert_eq!(names, ["resnet152", "googlenet", "inception_v4"]);
    }
}
