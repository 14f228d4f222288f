//! Graph export: Graphviz DOT and JSON.
//!
//! `Graph` implements `serde::{Serialize, Deserialize}` (decoding
//! validates), so JSON is the interchange format for saving custom
//! models; DOT is for eyeballs.

use crate::graph::Graph;
use crate::GraphError;
use std::fmt::Write as _;

impl Graph {
    /// Renders the graph in Graphviz DOT format, one node per layer,
    /// clustered by block label.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = lcmm_graph::zoo::alexnet();
    /// let dot = g.to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("conv1"));
    /// ```
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {:?} {{", self.name());
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
        // Group nodes by block into subgraph clusters.
        for (cluster, block) in self.blocks().iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{cluster} {{");
            let _ = writeln!(out, "    label={block:?};");
            for id in self.block_nodes(block) {
                let node = self.node(id);
                let _ = writeln!(
                    out,
                    "    n{} [label=\"{}\\n{} -> {}\"];",
                    id.index(),
                    node.name(),
                    node.op(),
                    node.output_shape()
                );
            }
            let _ = writeln!(out, "  }}");
        }
        // Unlabelled nodes at top level.
        for node in self.iter().filter(|n| n.block().is_none()) {
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\\n{} -> {}\"];",
                node.id().index(),
                node.name(),
                node.op(),
                node.output_shape()
            );
        }
        for node in self.iter() {
            for &input in node.inputs() {
                let _ = writeln!(out, "  n{} -> n{};", input.index(), node.id().index());
            }
        }
        out.push_str("}\n");
        out
    }

    /// Serialises the graph to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialisation fails (practically never for
    /// this data model).
    pub fn to_json(&self) -> Result<String, GraphError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| GraphError::Malformed(format!("serialisation failed: {e}")))
    }

    /// Restores a graph from [`Graph::to_json`] output, re-validating
    /// the structure (consumer lists, acyclicity).
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or on a graph that fails
    /// validation (cycles, dangling node ids).
    pub fn from_json(json: &str) -> Result<Self, GraphError> {
        serde_json::from_str(json)
            .map_err(|e| GraphError::Malformed(format!("deserialisation failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn dot_contains_every_node_and_edge() {
        let g = zoo::googlenet();
        let dot = g.to_dot();
        for node in g.iter() {
            assert!(
                dot.contains(&format!("n{} ", node.id().index())),
                "{}",
                node.name()
            );
        }
        let edges = g.iter().map(|n| n.inputs().len()).sum::<usize>();
        assert_eq!(dot.matches(" -> n").count(), edges);
    }

    #[test]
    fn dot_clusters_blocks() {
        let g = zoo::resnet50();
        let dot = g.to_dot();
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("label=\"stem\""));
    }

    #[test]
    fn json_round_trip_preserves_structure() {
        let g = zoo::alexnet();
        let json = g.to_json().expect("serialises");
        let back = Graph::from_json(&json).expect("deserialises");
        assert_eq!(back.len(), g.len());
        assert_eq!(back.name(), g.name());
        assert_eq!(back.total_macs(), g.total_macs());
        for (a, b) in g.iter().zip(back.iter()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.output_shape(), b.output_shape());
            assert_eq!(a.inputs(), b.inputs());
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Graph::from_json("not json").is_err());
        assert!(Graph::from_json("{\"name\": \"x\"}").is_err());
    }

    #[test]
    fn decoding_validates_ids_and_rebuilds_consumers() {
        let g = zoo::alexnet();
        let json = serde_json::to_string(&g).expect("serialises");
        let misnumbered = json.replacen("\"id\":2,", "\"id\":7,", 1);
        assert_ne!(json, misnumbered);
        let err = Graph::from_json(&misnumbered).unwrap_err();
        assert!(err.to_string().contains("carries id 7"), "{err}");
        let dangling = json.replacen("\"inputs\":[0]", "\"inputs\":[99]", 1);
        assert!(Graph::from_json(&dangling).is_err());
        // Consumer lists are derived, never read.
        let start = json.find("\"consumers\":").unwrap();
        let end = json.rfind(",\"output\":").unwrap();
        let emptied = format!("{}\"consumers\":[]{}", &json[..start], &json[end..]);
        let back = Graph::from_json(&emptied).expect("consumers are optional");
        assert_eq!(back.id(), g.id());
        for n in g.iter() {
            assert_eq!(back.consumers(n.id()), g.consumers(n.id()));
        }
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn every_zoo_export_decodes_to_the_same_id() {
        let mut graphs = zoo::full_zoo();
        graphs.push(zoo::by_name("synthetic:64x3x7").unwrap());
        for g in &graphs {
            let back = Graph::from_json(&g.to_json().unwrap()).expect("exports decode");
            assert_eq!(back.id(), g.id(), "{}", g.name());
        }
    }

    #[test]
    fn decoding_rejects_what_the_builder_would_not_build() {
        let json = serde_json::to_string(&zoo::alexnet()).expect("serialises");
        let tampered = [
            // conv1 at stride 5 derives 44x44, not the stored 55x55.
            (r#""stride_h":4"#, r#""stride_h":5"#, "derives"),
            (
                r#""name":"conv2""#,
                r#""name":"conv1""#,
                "duplicate layer name",
            ),
            // fc8 at 999 features derives a 999-vector, not the stored 1000.
            (r#""out_features":1000"#, r#""out_features":999"#, "derives"),
        ];
        for (from, to, expect) in tampered {
            let edited = json.replacen(from, to, 1);
            assert_ne!(edited, json, "edit target {from} not found");
            let err = Graph::from_json(&edited).expect_err(to);
            assert!(err.to_string().contains(expect), "{to}: {err}");
        }
        let input = r#"{"op":"Input","output":{"channels":3,"height":8,"width":8},"block":null"#;
        let second_input = format!(
            r#"{{"name":"t","nodes":[{input},"id":0,"name":"x","inputs":[]}},{input},"id":1,"name":"y","inputs":[0]}}],"output":1}}"#
        );
        let err = Graph::from_json(&second_input).expect_err("input nodes read nothing");
        assert!(err.to_string().contains("reads other nodes"), "{err}");
    }

    #[test]
    fn from_json_rejects_cycles() {
        // Hand-craft a cyclic graph JSON by round-tripping a valid one
        // and corrupting an edge.
        let g = zoo::alexnet();
        let json = g.to_json().expect("serialises");
        // conv1 (node 1) reads node 0; point it at the last node instead.
        let corrupted = json.replacen(
            "\"inputs\": [\n        0\n      ]",
            "\"inputs\": [\n        11\n      ]",
            1,
        );
        assert_ne!(json, corrupted, "corruption must hit");
        assert!(Graph::from_json(&corrupted).is_err());
    }
}
