//! Incremental, validating graph construction.

use crate::graph::{Graph, Node, NodeId};
use crate::op::{ConvParams, FcParams, OpKind, PoolKind, PoolParams};
use crate::tensor::FeatureShape;
use crate::GraphError;
use std::collections::HashSet;

/// Builds a [`Graph`] one layer at a time, validating shapes as it goes.
///
/// Every method that adds a node returns the new node's [`NodeId`], which
/// later layers use as their input. Because a node can only reference ids
/// that already exist, builder-made graphs are acyclic by construction and
/// id order is a topological order.
///
/// # Examples
///
/// ```
/// use lcmm_graph::{GraphBuilder, FeatureShape, ConvParams};
///
/// # fn main() -> Result<(), lcmm_graph::GraphError> {
/// let mut b = GraphBuilder::new("branchy");
/// let x = b.input(FeatureShape::new(3, 32, 32))?;
/// let stem = b.conv("stem", x, ConvParams::square(16, 3, 1, 1))?;
/// let left = b.conv("left", stem, ConvParams::pointwise(8))?;
/// let right = b.conv("right", stem, ConvParams::square(8, 3, 1, 1))?;
/// let joined = b.concat("join", &[left, right])?;
/// let g = b.finish(joined)?;
/// assert_eq!(g.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
    names: HashSet<String>,
    current_block: Option<String>,
}

impl GraphBuilder {
    /// Starts building a graph with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            names: HashSet::new(),
            current_block: None,
        }
    }

    /// Sets the block label attached to subsequently added nodes (until
    /// the next call). Model builders use this to delimit inception
    /// blocks / residual stages for the block-level experiments.
    pub fn set_block(&mut self, block: impl Into<String>) {
        self.current_block = Some(block.into());
    }

    /// Clears the current block label.
    pub fn clear_block(&mut self) {
        self.current_block = None;
    }

    /// Adds a derived node: its output shape is what `op` derives from
    /// the shapes of `inputs` ([`OpKind::derive_output`]).
    fn add(&mut self, name: String, op: OpKind, inputs: Vec<NodeId>) -> Result<NodeId, GraphError> {
        let output = if let [from] = inputs[..] {
            op.derive_output(&[self.shape_of(from)?])?
        } else {
            let shapes = inputs
                .iter()
                .map(|&i| self.shape_of(i))
                .collect::<Result<Vec<_>, _>>()?;
            op.derive_output(&shapes)?
        };
        self.push(name, op, inputs, output)
    }

    /// Appends a node whose inputs exist and whose shape is settled.
    fn push(
        &mut self,
        name: String,
        op: OpKind,
        inputs: Vec<NodeId>,
        output: FeatureShape,
    ) -> Result<NodeId, GraphError> {
        if !self.names.insert(name.clone()) {
            return Err(GraphError::Malformed(format!(
                "duplicate layer name {name:?}"
            )));
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            name,
            op,
            inputs,
            output,
            block: self.current_block.clone(),
        });
        Ok(id)
    }

    fn shape_of(&self, id: NodeId) -> Result<FeatureShape, GraphError> {
        self.nodes
            .get(id.0)
            .map(|n| n.output)
            .ok_or(GraphError::UnknownNode(id.0))
    }

    /// Adds the external input pseudo-node.
    ///
    /// # Errors
    ///
    /// [`GraphError::Malformed`] if called more than once — the paper's
    /// workloads are all single-input classifiers, and allowing several
    /// inputs would complicate liveness without exercising anything new.
    pub fn input(&mut self, shape: FeatureShape) -> Result<NodeId, GraphError> {
        if self.nodes.iter().any(|n| matches!(n.op, OpKind::Input)) {
            return Err(GraphError::Malformed(
                "graph already has an input node".to_string(),
            ));
        }
        self.push("input".to_string(), OpKind::Input, Vec::new(), shape)
    }

    /// Adds a convolution layer.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown, the kernel does not fit the
    /// padded input, or `name` is already taken.
    pub fn conv(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        params: ConvParams,
    ) -> Result<NodeId, GraphError> {
        self.add(name.into(), OpKind::Conv(params), vec![from])
    }

    /// Adds a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::conv`].
    pub fn max_pool(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<NodeId, GraphError> {
        self.pool(
            name,
            from,
            PoolParams {
                kind: PoolKind::Max,
                kernel,
                stride,
                pad,
            },
        )
    }

    /// Adds an average-pooling layer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::conv`].
    pub fn avg_pool(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<NodeId, GraphError> {
        self.pool(
            name,
            from,
            PoolParams {
                kind: PoolKind::Avg,
                kernel,
                stride,
                pad,
            },
        )
    }

    fn pool(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        params: PoolParams,
    ) -> Result<NodeId, GraphError> {
        self.add(name.into(), OpKind::Pool(params), vec![from])
    }

    /// Adds a global average pooling layer (`C×H×W -> C×1×1`).
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the name collides.
    pub fn global_avg_pool(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
    ) -> Result<NodeId, GraphError> {
        self.add(name.into(), OpKind::GlobalAvgPool, vec![from])
    }

    /// Adds a fully-connected layer.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the name collides.
    pub fn fc(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        out_features: usize,
    ) -> Result<NodeId, GraphError> {
        self.add(
            name.into(),
            OpKind::Fc(FcParams { out_features }),
            vec![from],
        )
    }

    /// Adds a channel-concatenation node joining `from` (≥ 2 inputs with
    /// identical spatial extent).
    ///
    /// # Errors
    ///
    /// Returns an error on arity < 2 or mismatched spatial shapes.
    pub fn concat(
        &mut self,
        name: impl Into<String>,
        from: &[NodeId],
    ) -> Result<NodeId, GraphError> {
        self.add(name.into(), OpKind::Concat, from.to_vec())
    }

    /// Adds an element-wise addition node (residual join) over `from`
    /// (≥ 2 inputs with identical shapes).
    ///
    /// # Errors
    ///
    /// Returns an error on arity < 2 or mismatched shapes.
    pub fn eltwise_add(
        &mut self,
        name: impl Into<String>,
        from: &[NodeId],
    ) -> Result<NodeId, GraphError> {
        self.add(name.into(), OpKind::EltwiseAdd, from.to_vec())
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shape currently produced by node `id`, if it exists.
    #[must_use]
    pub fn shape(&self, id: NodeId) -> Option<FeatureShape> {
        self.nodes.get(id.0).map(|n| n.output)
    }

    /// Finalises the graph with `output` as the network output node.
    ///
    /// # Errors
    ///
    /// Returns an error if `output` is unknown or the graph is malformed.
    pub fn finish(self, output: NodeId) -> Result<Graph, GraphError> {
        Graph::from_parts(self.name, self.nodes, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_rejected() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(FeatureShape::new(3, 8, 8)).expect("input");
        b.conv("c", x, ConvParams::pointwise(4)).unwrap();
        let err = b.conv("c", x, ConvParams::pointwise(4)).unwrap_err();
        assert!(matches!(err, GraphError::Malformed(_)));
    }

    #[test]
    fn second_input_is_an_error() {
        let mut b = GraphBuilder::new("g");
        b.input(FeatureShape::new(3, 8, 8)).expect("first input");
        let err = b.input(FeatureShape::new(3, 8, 8)).unwrap_err();
        assert!(matches!(err, GraphError::Malformed(_)));
        assert!(err.to_string().contains("already has an input"));
    }

    #[test]
    fn concat_arity_and_shape_checks() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(FeatureShape::new(3, 8, 8)).expect("input");
        let a = b.conv("a", x, ConvParams::pointwise(4)).unwrap();
        let small = b.conv("s", x, ConvParams::square(4, 3, 2, 1)).unwrap();
        assert!(matches!(
            b.concat("c1", &[a]),
            Err(GraphError::Malformed(_))
        ));
        assert!(matches!(
            b.concat("c2", &[a, small]),
            Err(GraphError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn eltwise_requires_identical_shapes() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(FeatureShape::new(3, 8, 8)).expect("input");
        let a = b.conv("a", x, ConvParams::pointwise(4)).unwrap();
        let c = b.conv("c", x, ConvParams::pointwise(8)).unwrap();
        assert!(matches!(
            b.eltwise_add("e", &[a, c]),
            Err(GraphError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn fc_flattens_input() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(FeatureShape::new(512, 7, 7)).expect("input");
        let gap = b.global_avg_pool("gap", x).unwrap();
        let fc = b.fc("fc", gap, 1000).unwrap();
        assert_eq!(b.shape(fc).unwrap(), FeatureShape::vector(1000));
        assert_eq!(b.shape(gap).unwrap(), FeatureShape::vector(512));
    }

    #[test]
    fn fc_zero_features_rejected() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(FeatureShape::new(4, 1, 1)).expect("input");
        assert!(matches!(
            b.fc("fc", x, 0),
            Err(GraphError::InvalidParams(_))
        ));
    }

    #[test]
    fn block_labels_are_attached() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(FeatureShape::new(3, 8, 8)).expect("input");
        b.set_block("stage1");
        let a = b.conv("a", x, ConvParams::pointwise(4)).unwrap();
        b.set_block("stage2");
        let c = b.conv("c", a, ConvParams::pointwise(4)).unwrap();
        b.clear_block();
        let p = b.max_pool("p", c, 2, 2, 0).unwrap();
        let g = b.finish(p).unwrap();
        assert_eq!(g.blocks(), vec!["stage1", "stage2"]);
        assert_eq!(g.block_nodes("stage1").len(), 1);
        assert!(g.node_by_name("p").unwrap().block().is_none());
    }

    #[test]
    fn unknown_input_id_rejected() {
        let mut b = GraphBuilder::new("g");
        let _x = b.input(FeatureShape::new(3, 8, 8)).expect("input");
        let bogus = NodeId(42);
        assert!(matches!(
            b.conv("c", bogus, ConvParams::pointwise(4)),
            Err(GraphError::UnknownNode(42))
        ));
    }
}
