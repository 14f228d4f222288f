//! Layer operator kinds and their shape/cost semantics.

use crate::tensor::FeatureShape;
use crate::GraphError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of a (possibly non-square, possibly grouped) 2-D
/// convolution.
///
/// `groups` partitions the input and output channels into independent
/// convolutions (`groups == in_channels` with matching `out_channels`
/// is a depthwise convolution, as in MobileNet's separable blocks).
/// The paper's benchmark networks (ResNet-152, GoogLeNet, Inception-v4)
/// all use `groups == 1`.
///
/// # Examples
///
/// ```
/// use lcmm_graph::ConvParams;
///
/// // 3x3 stride-1 same-padding conv producing 64 maps.
/// let p = ConvParams::square(64, 3, 1, 1);
/// assert_eq!(p.kernel_h, 3);
/// assert_eq!(p.kernel_w, 3);
/// assert_eq!(p.groups, 1);
///
/// // Depthwise 3x3 over 64 channels: 64 groups of one map each.
/// let dw = ConvParams::depthwise(64, 3, 1, 1);
/// assert_eq!(dw.groups, 64);
/// assert_eq!(dw.weight_elems(64), 64 * 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvParams {
    /// Number of output feature maps (`M` in the paper's loop nest).
    pub out_channels: usize,
    /// Filter height (`K`).
    pub kernel_h: usize,
    /// Filter width (`K`).
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Vertical zero padding (applied to both top and bottom).
    pub pad_h: usize,
    /// Horizontal zero padding (applied to both left and right).
    pub pad_w: usize,
    /// Channel groups: each group convolves `C/groups` input maps into
    /// `M/groups` output maps (1 = dense convolution).
    pub groups: usize,
}

impl ConvParams {
    /// Square kernel with equal strides and padding in both dimensions —
    /// the common case.
    #[must_use]
    pub fn square(out_channels: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Self {
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
            groups: 1,
        }
    }

    /// Depthwise convolution: one filter per channel (`groups ==
    /// out_channels == in_channels`), the MobileNet building block.
    #[must_use]
    pub fn depthwise(channels: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Self {
            groups: channels,
            ..Self::square(channels, kernel, stride, pad)
        }
    }

    /// Rectangular kernel, used by Inception-v4's `1x7`/`7x1` factorised
    /// convolutions. Padding defaults to "same" for stride 1:
    /// `pad = (k - 1) / 2` per dimension.
    #[must_use]
    pub fn rect(out_channels: usize, kernel_h: usize, kernel_w: usize) -> Self {
        Self {
            out_channels,
            kernel_h,
            kernel_w,
            stride_h: 1,
            stride_w: 1,
            pad_h: (kernel_h - 1) / 2,
            pad_w: (kernel_w - 1) / 2,
            groups: 1,
        }
    }

    /// Pointwise (`1x1`) convolution.
    #[must_use]
    pub fn pointwise(out_channels: usize) -> Self {
        Self::square(out_channels, 1, 1, 0)
    }

    /// Output shape produced from `input`.
    ///
    /// # Errors
    ///
    /// Returns an error when the kernel does not fit the (padded) input,
    /// a stride/kernel is zero, or `groups` does not evenly divide both
    /// the input and output channel counts.
    pub fn output_shape(&self, input: FeatureShape) -> Result<FeatureShape, GraphError> {
        if self.groups == 0 {
            return Err(GraphError::InvalidParams(
                "conv groups must be nonzero".to_string(),
            ));
        }
        if !input.channels.is_multiple_of(self.groups)
            || !self.out_channels.is_multiple_of(self.groups)
        {
            return Err(GraphError::InvalidParams(format!(
                "groups {} must divide input channels {} and output channels {}",
                self.groups, input.channels, self.out_channels
            )));
        }
        let out_h = conv_dim(input.height, self.kernel_h, self.stride_h, self.pad_h)?;
        let out_w = conv_dim(input.width, self.kernel_w, self.stride_w, self.pad_w)?;
        Ok(FeatureShape::new(self.out_channels, out_h, out_w))
    }

    /// Weight tensor element count: `M·(C/g)·Kh·Kw`.
    #[must_use]
    pub fn weight_elems(&self, in_channels: usize) -> u64 {
        self.out_channels as u64
            * (in_channels / self.groups.max(1)) as u64
            * self.kernel_h as u64
            * self.kernel_w as u64
    }

    /// Multiply-accumulate count: `M·(C/g)·Ho·Wo·Kh·Kw`.
    #[must_use]
    pub fn macs(&self, input: FeatureShape, output: FeatureShape) -> u64 {
        output.elems()
            * (input.channels / self.groups.max(1)) as u64
            * self.kernel_h as u64
            * self.kernel_w as u64
    }
}

fn conv_dim(dim: usize, kernel: usize, stride: usize, pad: usize) -> Result<usize, GraphError> {
    if stride == 0 || kernel == 0 {
        return Err(GraphError::InvalidParams(format!(
            "kernel {kernel} / stride {stride} must be nonzero"
        )));
    }
    // Decoded graphs carry parameters from outside the program.
    let padded = pad
        .checked_mul(2)
        .and_then(|both| both.checked_add(dim))
        .ok_or_else(|| GraphError::InvalidParams(format!("padding {pad} overflows")))?;
    if padded < kernel {
        return Err(GraphError::InvalidParams(format!(
            "kernel {kernel} larger than padded input {padded}"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Parameters of a 2-D pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolParams {
    /// Max or average.
    pub kind: PoolKind,
    /// Square pooling window size.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub pad: usize,
}

impl PoolParams {
    /// Output shape produced from `input`.
    ///
    /// # Errors
    ///
    /// Returns an error when the window does not fit the (padded) input
    /// or the stride/kernel is zero.
    pub fn output_shape(&self, input: FeatureShape) -> Result<FeatureShape, GraphError> {
        let out_h = conv_dim(input.height, self.kernel, self.stride, self.pad)?;
        let out_w = conv_dim(input.width, self.kernel, self.stride, self.pad)?;
        Ok(FeatureShape::new(input.channels, out_h, out_w))
    }
}

/// Parameters of a fully-connected (inner-product) layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FcParams {
    /// Number of output features.
    pub out_features: usize,
}

/// The operator performed by a graph node.
///
/// Activation functions (ReLU) and batch normalisation are treated as
/// folded into the preceding convolution, as every FPGA accelerator design
/// the paper builds on does; they contribute neither MACs of interest nor
/// off-chip traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// External input feeding the network (the image).
    Input,
    /// 2-D convolution (with folded bias/BN/ReLU).
    Conv(ConvParams),
    /// 2-D pooling.
    Pool(PoolParams),
    /// Global average pooling down to `C × 1 × 1`.
    GlobalAvgPool,
    /// Fully-connected layer.
    Fc(FcParams),
    /// Channel concatenation of all inputs (inception joins).
    Concat,
    /// Element-wise addition of all inputs (residual joins).
    EltwiseAdd,
}

impl OpKind {
    /// Whether this node owns a weight tensor.
    #[must_use]
    pub fn has_weights(&self) -> bool {
        matches!(self, OpKind::Conv(_) | OpKind::Fc(_))
    }

    /// Whether this node performs MAC work on the compute array.
    ///
    /// Pooling, concat and element-wise layers are executed by dedicated
    /// lightweight units (or, for concat, by address generation alone) in
    /// the systolic-array designs LCMM targets.
    #[must_use]
    pub fn is_compute(&self) -> bool {
        matches!(self, OpKind::Conv(_) | OpKind::Fc(_))
    }

    /// The output shape this op derives from its input shapes — the one
    /// shape rule: [`crate::GraphBuilder`] applies it as it adds a node,
    /// and decoding re-applies it to check every stored shape.
    ///
    /// # Errors
    ///
    /// The wrong number of inputs, parameters that do not fit the input,
    /// join inputs that disagree in shape, and [`OpKind::Input`], whose
    /// shape is given rather than derived.
    pub(crate) fn derive_output(
        &self,
        inputs: &[FeatureShape],
    ) -> Result<FeatureShape, GraphError> {
        match (self, inputs) {
            (OpKind::Input, _) => Err(GraphError::Malformed(
                "the input node's shape is given, not derived".to_string(),
            )),
            (OpKind::Conv(p), [input]) => p.output_shape(*input),
            (OpKind::Pool(p), [input]) => p.output_shape(*input),
            (OpKind::GlobalAvgPool, [input]) => Ok(FeatureShape::vector(input.channels)),
            (OpKind::Fc(FcParams { out_features: 0 }), [_]) => Err(GraphError::InvalidParams(
                "fc out_features must be nonzero".into(),
            )),
            (OpKind::Fc(p), [_]) => Ok(FeatureShape::vector(p.out_features)),
            (OpKind::Concat, [first, _, ..]) => {
                let mut channels = 0usize;
                for s in inputs {
                    if !s.same_spatial(first) {
                        return Err(GraphError::ShapeMismatch(format!(
                            "concat inputs {first} vs {s} differ spatially"
                        )));
                    }
                    channels = channels.checked_add(s.channels).ok_or_else(|| {
                        GraphError::ShapeMismatch("concat channel count overflows".into())
                    })?;
                }
                Ok(first.with_channels(channels))
            }
            (OpKind::EltwiseAdd, [first, _, ..]) => match inputs.iter().find(|s| *s != first) {
                Some(s) => Err(GraphError::ShapeMismatch(format!(
                    "eltwise inputs {first} vs {s} differ"
                ))),
                None => Ok(*first),
            },
            (OpKind::Concat, _) => Err(GraphError::Malformed(
                "concat needs at least two inputs".into(),
            )),
            (OpKind::EltwiseAdd, _) => Err(GraphError::Malformed(
                "eltwise add needs at least two inputs".into(),
            )),
            (op, _) => Err(GraphError::Malformed(format!(
                "{} takes one input, got {}",
                op.tag(),
                inputs.len()
            ))),
        }
    }

    /// Short lowercase tag used in traces and reports.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            OpKind::Input => "input",
            OpKind::Conv(_) => "conv",
            OpKind::Pool(_) => "pool",
            OpKind::GlobalAvgPool => "gap",
            OpKind::Fc(_) => "fc",
            OpKind::Concat => "concat",
            OpKind::EltwiseAdd => "add",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Conv(p) if p.groups > 1 => write!(
                f,
                "conv {}x{}/{} g{} -> {}",
                p.kernel_h, p.kernel_w, p.stride_h, p.groups, p.out_channels
            ),
            OpKind::Conv(p) => write!(
                f,
                "conv {}x{}/{} -> {}",
                p.kernel_h, p.kernel_w, p.stride_h, p.out_channels
            ),
            OpKind::Pool(p) => write!(f, "{:?}pool {}x{}/{}", p.kind, p.kernel, p.kernel, p.stride),
            OpKind::Fc(p) => write!(f, "fc -> {}", p.out_features),
            other => f.write_str(other.tag()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_shape_same_padding() {
        let p = ConvParams::square(64, 3, 1, 1);
        let out = p.output_shape(FeatureShape::new(3, 224, 224)).unwrap();
        assert_eq!(out, FeatureShape::new(64, 224, 224));
    }

    #[test]
    fn conv_output_shape_stride_two() {
        // ResNet stem: 7x7/2 pad 3 on 224 -> 112.
        let p = ConvParams::square(64, 7, 2, 3);
        let out = p.output_shape(FeatureShape::new(3, 224, 224)).unwrap();
        assert_eq!(out, FeatureShape::new(64, 112, 112));
    }

    #[test]
    fn conv_output_shape_valid_padding() {
        // Inception-v4 stem: 3x3/2 valid on 299 -> 149.
        let p = ConvParams::square(32, 3, 2, 0);
        let out = p.output_shape(FeatureShape::new(3, 299, 299)).unwrap();
        assert_eq!(out, FeatureShape::new(32, 149, 149));
    }

    #[test]
    fn rect_conv_is_same_padded() {
        let p = ConvParams::rect(256, 1, 7);
        let out = p.output_shape(FeatureShape::new(192, 17, 17)).unwrap();
        assert_eq!(out, FeatureShape::new(256, 17, 17));
    }

    #[test]
    fn conv_kernel_too_large_errors() {
        let p = ConvParams::square(8, 9, 1, 0);
        assert!(p.output_shape(FeatureShape::new(3, 4, 4)).is_err());
    }

    #[test]
    fn conv_zero_stride_errors() {
        let mut p = ConvParams::square(8, 3, 1, 1);
        p.stride_h = 0;
        assert!(p.output_shape(FeatureShape::new(3, 8, 8)).is_err());
    }

    #[test]
    fn conv_macs_and_weights() {
        let p = ConvParams::square(64, 3, 1, 1);
        let input = FeatureShape::new(32, 56, 56);
        let output = p.output_shape(input).unwrap();
        assert_eq!(p.weight_elems(32), 64 * 32 * 9);
        assert_eq!(p.macs(input, output), 64 * 56 * 56 * 32 * 9);
    }

    #[test]
    fn depthwise_macs_and_weights() {
        let p = ConvParams::depthwise(32, 3, 1, 1);
        let input = FeatureShape::new(32, 56, 56);
        let output = p.output_shape(input).unwrap();
        assert_eq!(output, FeatureShape::new(32, 56, 56));
        assert_eq!(p.weight_elems(32), 32 * 9);
        assert_eq!(p.macs(input, output), 32 * 56 * 56 * 9);
    }

    #[test]
    fn grouped_conv_validates_divisibility() {
        let mut p = ConvParams::square(64, 3, 1, 1);
        p.groups = 3;
        assert!(p.output_shape(FeatureShape::new(32, 8, 8)).is_err());
        p.groups = 0;
        assert!(p.output_shape(FeatureShape::new(32, 8, 8)).is_err());
        p.groups = 4;
        assert!(p.output_shape(FeatureShape::new(32, 8, 8)).is_ok());
    }

    #[test]
    fn pool_output_shape() {
        let p = PoolParams {
            kind: PoolKind::Max,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let out = p.output_shape(FeatureShape::new(64, 112, 112)).unwrap();
        assert_eq!(out, FeatureShape::new(64, 56, 56));
    }

    #[test]
    fn derive_output_rejects_overflowing_parameters() {
        let mut p = ConvParams::square(8, 3, 1, 1);
        p.pad_w = usize::MAX;
        let op = OpKind::Conv(p);
        assert!(op.derive_output(&[FeatureShape::new(3, 8, 8)]).is_err());
        let wide = FeatureShape::new(usize::MAX, 4, 4);
        assert!(OpKind::Concat
            .derive_output(&[wide, FeatureShape::new(1, 4, 4)])
            .is_err());
    }

    #[test]
    fn op_classification() {
        assert!(OpKind::Conv(ConvParams::pointwise(8)).has_weights());
        assert!(OpKind::Fc(FcParams { out_features: 10 }).has_weights());
        assert!(!OpKind::Concat.has_weights());
        assert!(!OpKind::Pool(PoolParams {
            kind: PoolKind::Avg,
            kernel: 2,
            stride: 2,
            pad: 0
        })
        .is_compute());
    }

    #[test]
    fn display_formats() {
        let c = OpKind::Conv(ConvParams::square(64, 3, 1, 1));
        assert_eq!(c.to_string(), "conv 3x3/1 -> 64");
        let dw = OpKind::Conv(ConvParams::depthwise(64, 3, 2, 1));
        assert_eq!(dw.to_string(), "conv 3x3/2 g64 -> 64");
        assert_eq!(OpKind::Concat.to_string(), "concat");
    }
}
