//! DNN computation-graph intermediate representation and model zoo.
//!
//! This crate is the bottom layer of the LCMM stack (DAC'19, Wei et al.).
//! It knows nothing about FPGAs: it models a DNN inference workload as a
//! directed acyclic graph of layers over feature-map tensors, and provides
//! exact element/operation accounting that the performance model
//! (`lcmm-fpga`) and the memory manager (`lcmm-core`) consume.
//!
//! # Quick tour
//!
//! ```
//! use lcmm_graph::{GraphBuilder, FeatureShape, ConvParams};
//!
//! # fn main() -> Result<(), lcmm_graph::GraphError> {
//! let mut b = GraphBuilder::new("tiny");
//! let input = b.input(FeatureShape::new(3, 224, 224))?;
//! let c1 = b.conv("conv1", input, ConvParams::square(64, 7, 2, 3))?;
//! let p1 = b.max_pool("pool1", c1, 3, 2, 1)?;
//! let c2 = b.conv("conv2", p1, ConvParams::square(128, 3, 1, 1))?;
//! let graph = b.finish(c2)?;
//!
//! assert_eq!(graph.conv_layers().count(), 2);
//! assert!(graph.total_macs() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! The [`zoo`] module builds the three benchmark networks of the paper
//! (ResNet-152, GoogLeNet, Inception-v4) plus several classics used by the
//! examples and ablations.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod error;
mod export;
mod graph;
mod id;
mod op;
mod tensor;

pub mod analysis;
pub mod fast_hash;
pub mod transform;
pub mod zoo;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{Graph, Node, NodeId};
pub use id::{ContentHasher, GraphId};
pub use op::{ConvParams, FcParams, OpKind, PoolKind, PoolParams};
pub use tensor::FeatureShape;
