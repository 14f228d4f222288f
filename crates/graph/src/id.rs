//! Content identity: the one hasher behind every cache key and identity
//! check in the workspace, and the [`GraphId`] it gives each graph.

use std::fmt;
use std::hash::{Hash, Hasher};

/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Lane offsets: the standard FNV-1a basis and an independent second one.
const OFFSETS: [u64; 2] = [0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142];

/// Two independent FNV-1a lanes over one byte stream: a cheap,
/// deterministic, non-cryptographic 128-bit content hash (accidental
/// collisions ~2⁻¹²⁸). [`Hasher::finish`] is the first lane alone —
/// plain 64-bit FNV-1a of the bytes written.
#[derive(Debug)]
pub struct ContentHasher {
    lanes: [u64; 2],
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self { lanes: OFFSETS }
    }
}

impl ContentHasher {
    /// The 128-bit digest of `value`, fed through its `Hash` impl.
    #[must_use]
    pub fn digest(value: &impl Hash) -> u128 {
        let mut hasher = Self::default();
        value.hash(&mut hasher);
        (u128::from(hasher.lanes[0]) << 64) | u128::from(hasher.lanes[1])
    }
}

impl Hasher for ContentHasher {
    fn write(&mut self, bytes: &[u8]) {
        let [mut a, mut b] = self.lanes;
        for &byte in bytes {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [a, b];
    }

    fn finish(&self) -> u64 {
        self.lanes[0]
    }
}

/// The content identity of a [`Graph`](crate::Graph), computed once per
/// graph on first use: the [`ContentHasher`] digest of its name, every
/// node's id, name, op, inputs, output shape and block, and the output
/// node (the derived consumer lists are not part of it). An in-process
/// cache identity, never a persisted format; displays as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphId(pub(crate) u128);

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, ConvParams, FeatureShape, Graph, GraphBuilder};

    /// A small graph with a block label and a branch, so every part of
    /// the node table has something to perturb.
    fn tiny(name: &str, stride: usize, block: &str, output_last: bool) -> Graph {
        let mut b = GraphBuilder::new(name);
        let x = b.input(FeatureShape::new(3, 32, 32)).unwrap();
        b.set_block(block);
        let a = b.conv("a", x, ConvParams::square(8, 3, stride, 1)).unwrap();
        let c = b.conv("c", a, ConvParams::pointwise(8)).unwrap();
        b.finish(if output_last { c } else { a }).unwrap()
    }

    #[test]
    fn fnv_lane_matches_the_reference_vectors() {
        // Published 64-bit FNV-1a test vectors.
        let lane0 = |bytes: &[u8]| {
            let mut h = ContentHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(lane0(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(lane0(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(lane0(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn equal_content_has_one_id_however_it_was_made() {
        let built = zoo::googlenet();
        let rebuilt = zoo::googlenet();
        assert_eq!(built.id(), rebuilt.id());
        let round_trip = Graph::from_json(&built.to_json().unwrap()).unwrap();
        assert_eq!(built.id(), round_trip.id());
        let compact: Graph = serde_json::from_str(&serde_json::to_string(&built).unwrap()).unwrap();
        assert_eq!(built.id(), compact.id());
        assert_ne!(built.id(), zoo::alexnet().id());
    }

    #[test]
    fn any_single_change_yields_a_new_id() {
        let base = tiny("t", 1, "b0", true);
        assert_eq!(base.id(), tiny("t", 1, "b0", true).id());
        let variants = [
            ("name", tiny("u", 1, "b0", true)),
            ("op parameter", tiny("t", 2, "b0", true)),
            ("block label", tiny("t", 1, "b1", true)),
            ("output node", tiny("t", 1, "b0", false)),
        ];
        for (what, g) in &variants {
            assert_ne!(base.id(), g.id(), "changing the {what} kept the id");
        }
        // One input edge: `c` reads the input instead of `a` (same
        // shapes, so only the edge differs).
        let json = serde_json::to_string(&base).unwrap();
        let rewired = json.replacen("\"inputs\":[1]", "\"inputs\":[0]", 1);
        assert_ne!(json, rewired, "edge target not found");
        let rewired: Graph = serde_json::from_str(&rewired).unwrap();
        assert_ne!(
            base.id(),
            rewired.id(),
            "changing an input edge kept the id"
        );
    }

    #[test]
    fn display_is_32_hex_digits() {
        let text = zoo::alexnet().id().to_string();
        assert_eq!(text.len(), 32);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
