//! The computation graph: nodes, edges, topological order, accounting.

use crate::id::{ContentHasher, GraphId};
use crate::op::{FcParams, OpKind};
use crate::tensor::FeatureShape;
use crate::GraphError;
use serde::content::{as_map, decode_field};
use serde::{Content, Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a node within one [`Graph`].
///
/// Ids are dense indices assigned in insertion order, which for graphs
/// built by [`crate::GraphBuilder`] is also a valid topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Creates an id from a dense index. Only meaningful for indices
    /// obtained from the same graph; primarily useful in tests and
    /// serialisation code.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One layer of the network.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    pub(crate) op: OpKind,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) output: FeatureShape,
    /// Label of the network block this node belongs to (e.g.
    /// `"inception_4a"`). Used by the Fig. 2(b) design-space sweep and the
    /// Fig. 8 per-block analysis.
    pub(crate) block: Option<String>,
}

impl Node {
    /// The node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable layer name (unique within the graph).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator this node performs.
    #[must_use]
    pub fn op(&self) -> &OpKind {
        &self.op
    }

    /// Ids of the nodes whose outputs feed this node, in positional order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Shape of the output feature map.
    #[must_use]
    pub fn output_shape(&self) -> FeatureShape {
        self.output
    }

    /// Block label, if the model builder assigned one.
    #[must_use]
    pub fn block(&self) -> Option<&str> {
        self.block.as_deref()
    }
}

/// An immutable DNN computation graph.
///
/// Construct one with [`crate::GraphBuilder`] or decode one from JSON;
/// both routes validate the structure (dense ids, known inputs,
/// acyclicity), so every `Graph` in existence is well-formed. A `Graph`
/// is a handle on `Arc`-shared, never-mutated parts: cloning it bumps
/// reference counts, and every clone shares one [`GraphId`], computed
/// once, on first use.
#[derive(Debug, Clone)]
pub struct Graph {
    /// The node table, held as a fat pointer in the handle itself so
    /// that indexing it costs what indexing a `Vec` field does: an
    /// `Arc` of one body holding the table would add a dependent load
    /// to every accessor on the planner's hot paths.
    nodes: Arc<[Node]>,
    /// consumers[i] = ids of nodes that read node i's output.
    consumers: Arc<[Vec<NodeId>]>,
    output: NodeId,
    meta: Arc<Meta>,
}

/// The rarely read, shared parts of a [`Graph`].
#[derive(Debug)]
struct Meta {
    name: String,
    /// Filled by the first [`Graph::id`] call: callers that never key
    /// or compare graphs (the planner itself) never pay for hashing.
    id: OnceLock<GraphId>,
}

impl Graph {
    /// The one constructor: validates the node table and derives the
    /// consumer lists.
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        output: NodeId,
    ) -> Result<Self, GraphError> {
        let mut consumers = vec![Vec::new(); nodes.len()];
        for (index, node) in nodes.iter().enumerate() {
            if node.id.0 != index {
                return Err(GraphError::Malformed(format!(
                    "node {:?} at index {index} carries id {}",
                    node.name, node.id.0
                )));
            }
            for &input in &node.inputs {
                if input.0 >= nodes.len() {
                    return Err(GraphError::UnknownNode(input.0));
                }
                consumers[input.0].push(node.id);
            }
        }
        if output.0 >= nodes.len() {
            return Err(GraphError::UnknownNode(output.0));
        }
        let graph = Self {
            nodes: nodes.into(),
            consumers: consumers.into(),
            output,
            meta: Arc::new(Meta {
                name,
                id: OnceLock::new(),
            }),
        };
        // Inputs reference earlier nodes only for builder-made graphs;
        // a decoded graph may have a cycle, which leaves nodes out of
        // the topological sweep.
        let swept = graph.topo_order().len();
        if swept != graph.len() {
            return Err(GraphError::Malformed(format!(
                "cycle detected: {} of {} nodes unreachable in topological sweep",
                graph.len() - swept,
                graph.len()
            )));
        }
        Ok(graph)
    }

    /// Checks what only a decoded graph can get wrong, since the builder
    /// enforces both as it goes: layer names are unique, and every
    /// stored output shape is the one its op derives from its inputs
    /// ([`OpKind::derive_output`]). Only the decode path pays for it.
    fn check_decoded(&self) -> Result<(), GraphError> {
        let nodes: &[Node] = &self.nodes;
        let mut names = HashSet::with_capacity(nodes.len());
        let mut shapes = Vec::new();
        for node in nodes {
            if !names.insert(node.name.as_str()) {
                return Err(GraphError::Malformed(format!(
                    "duplicate layer name {:?}",
                    node.name
                )));
            }
            if matches!(node.op, OpKind::Input) {
                if node.inputs.is_empty() {
                    continue;
                }
                return Err(GraphError::Malformed(format!(
                    "input node {:?} reads other nodes",
                    node.name
                )));
            }
            shapes.clear();
            shapes.extend(node.inputs.iter().map(|i| nodes[i.0].output));
            let derived = node.op.derive_output(&shapes)?;
            if derived != node.output {
                return Err(GraphError::ShapeMismatch(format!(
                    "node {:?} stores output {} but its op derives {derived}",
                    node.name, node.output
                )));
            }
        }
        Ok(())
    }

    /// The graph's content id: equal for equal node tables, however
    /// the graph was built or decoded.
    #[must_use]
    pub fn id(&self) -> GraphId {
        *self.meta.id.get_or_init(|| {
            GraphId(ContentHasher::digest(&(
                &self.meta.name,
                &self.nodes,
                self.output,
            )))
        })
    }

    /// The graph's name (e.g. `"inception_v4"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Number of nodes, including the input pseudo-node.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node carrying the network's final output.
    #[must_use]
    pub fn output_node(&self) -> &Node {
        &self.nodes[self.output.0]
    }

    /// Borrow a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to a different graph and is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Fallible node lookup.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0)
    }

    /// Look a node up by its unique name.
    #[must_use]
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Iterate over all nodes in topological (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Ids of the nodes that consume `id`'s output, in insertion order.
    #[must_use]
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.consumers[id.0]
    }

    /// Nodes in a valid topological order (Kahn's algorithm).
    ///
    /// For builder-made graphs this is simply id order (the builder only
    /// lets a node reference already-inserted nodes).
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut indegree: Vec<usize> = self.nodes.iter().map(|n| n.inputs.len()).collect();
        let mut queue: VecDeque<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i));
            for &c in &self.consumers[i] {
                indegree[c.0] -= 1;
                if indegree[c.0] == 0 {
                    queue.push_back(c.0);
                }
            }
        }
        order
    }

    /// Iterate over the convolution and fully-connected layers — the
    /// nodes that run on the compute array and own weights.
    pub fn compute_layers(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.op.is_compute())
    }

    /// Iterate over convolution layers only.
    pub fn conv_layers(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, OpKind::Conv(_)))
    }

    /// Multiply-accumulate count of one node (0 for non-compute ops).
    #[must_use]
    pub fn node_macs(&self, id: NodeId) -> u64 {
        let node = &self.nodes[id.0];
        match node.op {
            OpKind::Conv(p) => {
                let input = self.nodes[node.inputs[0].0].output;
                p.macs(input, node.output)
            }
            OpKind::Fc(FcParams { out_features }) => {
                let input = self.nodes[node.inputs[0].0].output;
                input.elems() * out_features as u64
            }
            _ => 0,
        }
    }

    /// Weight tensor element count of one node (0 for weight-less ops).
    #[must_use]
    pub fn node_weight_elems(&self, id: NodeId) -> u64 {
        let node = &self.nodes[id.0];
        match node.op {
            OpKind::Conv(p) => {
                let input = self.nodes[node.inputs[0].0].output;
                p.weight_elems(input.channels)
            }
            OpKind::Fc(FcParams { out_features }) => {
                let input = self.nodes[node.inputs[0].0].output;
                input.elems() * out_features as u64
            }
            _ => 0,
        }
    }

    /// Total input feature elements read by one node (sum over inputs).
    #[must_use]
    pub fn node_input_elems(&self, id: NodeId) -> u64 {
        self.nodes[id.0]
            .inputs
            .iter()
            .map(|&i| self.nodes[i.0].output.elems())
            .sum()
    }

    /// Total MACs of the whole network.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        (0..self.nodes.len())
            .map(|i| self.node_macs(NodeId(i)))
            .sum()
    }

    /// Total weight elements of the whole network.
    #[must_use]
    pub fn total_weight_elems(&self) -> u64 {
        (0..self.nodes.len())
            .map(|i| self.node_weight_elems(NodeId(i)))
            .sum()
    }

    /// Distinct block labels in first-appearance order.
    #[must_use]
    pub fn blocks(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for n in self.nodes.iter() {
            if let Some(b) = n.block.as_deref() {
                if !out.contains(&b) {
                    out.push(b);
                }
            }
        }
        out
    }

    /// Ids of the nodes assigned to `block`.
    #[must_use]
    pub fn block_nodes(&self, block: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.block.as_deref() == Some(block))
            .map(|n| n.id)
            .collect()
    }
}

/// Writes `name`, `nodes`, `consumers` and `output` — the interchange
/// encoding. The id is not written: decoding recomputes it.
impl Serialize for Graph {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("name".to_string(), self.meta.name.to_content()),
            ("nodes".to_string(), self.nodes.to_content()),
            ("consumers".to_string(), self.consumers.to_content()),
            ("output".to_string(), self.output.to_content()),
        ])
    }
}

/// Reads `name`, `nodes` and `output`, validates their structure
/// through the same constructor the builder uses, then checks names and
/// shapes the way the builder would have; any `consumers` field is
/// ignored (the lists are rebuilt from the inputs).
impl Deserialize for Graph {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        let fields = as_map(c, "Graph")?;
        let graph = Graph::from_parts(
            decode_field(fields, "name", "Graph")?,
            decode_field(fields, "nodes", "Graph")?,
            decode_field(fields, "output", "Graph")?,
        )
        .map_err(serde::Error::custom)?;
        graph.check_decoded().map_err(serde::Error::custom)?;
        Ok(graph)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph {} ({} nodes)", self.meta.name, self.nodes.len())?;
        for n in self.nodes.iter() {
            let ins: Vec<String> = n.inputs.iter().map(|i| i.to_string()).collect();
            writeln!(
                f,
                "  {} {:<28} {:<22} [{}] -> {}",
                n.id,
                n.name,
                n.op.to_string(),
                ins.join(", "),
                n.output
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::ConvParams;

    fn diamond() -> Graph {
        // input -> a -> {b, c} -> concat
        let mut gb = GraphBuilder::new("diamond");
        let input = gb.input(FeatureShape::new(3, 32, 32)).expect("input");
        let a = gb
            .conv("a", input, ConvParams::square(16, 3, 1, 1))
            .unwrap();
        let b = gb.conv("b", a, ConvParams::square(8, 1, 1, 0)).unwrap();
        let c = gb.conv("c", a, ConvParams::square(8, 3, 1, 1)).unwrap();
        let d = gb.concat("d", &[b, c]).unwrap();
        gb.finish(d).unwrap()
    }

    #[test]
    fn consumers_are_tracked() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap().id();
        assert_eq!(g.consumers(a).len(), 2);
        let d = g.node_by_name("d").unwrap().id();
        assert!(g.consumers(d).is_empty());
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        assert_eq!(order.len(), g.len());
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.len()];
            for (rank, id) in order.iter().enumerate() {
                pos[id.index()] = rank;
            }
            pos
        };
        for n in g.iter() {
            for &i in n.inputs() {
                assert!(
                    pos[i.index()] < pos[n.id().index()],
                    "edge {} -> {} violated",
                    i,
                    n.id()
                );
            }
        }
    }

    #[test]
    fn macs_and_weights_roll_up() {
        let g = diamond();
        // a: 16*32*32*3*9, b: 8*32*32*16*1, c: 8*32*32*16*9
        let expect_macs = 16 * 32 * 32 * 3 * 9 + 8 * 32 * 32 * 16 + 8 * 32 * 32 * 16 * 9;
        assert_eq!(g.total_macs(), expect_macs as u64);
        let expect_w = 16 * 3 * 9 + 8 * 16 + 8 * 16 * 9;
        assert_eq!(g.total_weight_elems(), expect_w as u64);
    }

    #[test]
    fn concat_output_sums_channels() {
        let g = diamond();
        assert_eq!(
            g.output_node().output_shape(),
            FeatureShape::new(16, 32, 32)
        );
    }

    #[test]
    fn node_input_elems_sums_all_inputs() {
        let g = diamond();
        let d = g.node_by_name("d").unwrap().id();
        assert_eq!(g.node_input_elems(d), 2 * 8 * 32 * 32);
    }

    #[test]
    fn display_lists_every_node() {
        let g = diamond();
        let text = g.to_string();
        for n in g.iter() {
            assert!(text.contains(n.name()), "missing {}", n.name());
        }
    }

    #[test]
    fn clones_share_storage_and_id() {
        let g = diamond();
        let copy = g.clone();
        assert!(std::ptr::eq(g.node(NodeId(0)), copy.node(NodeId(0))));
        let id = copy.id();
        assert_eq!(
            g.meta.id.get(),
            Some(&id),
            "the id is computed once for all clones"
        );
    }

    #[test]
    fn node_lookup() {
        let g = diamond();
        assert!(g.node_by_name("nope").is_none());
        let a = g.node_by_name("a").unwrap();
        assert_eq!(g.node(a.id()).name(), "a");
        assert!(g.get(NodeId(999)).is_none());
    }
}
