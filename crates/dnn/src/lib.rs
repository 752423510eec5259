//! # `mpipu-dnn` — minimal DNN substrate for the IPU evaluation
//!
//! The paper evaluates its architecture on convolution workloads from
//! ResNet-18/50 and InceptionV3, plus the ResNet-18 backward pass, and
//! measures Top-1 accuracy of FP16 inference at several IPU precisions.
//! This crate provides everything those experiments need, built from
//! scratch:
//!
//! * [`shape`] — convolution layer geometry and work accounting.
//! * [`zoo`] — per-network conv-layer tables (ResNet-18, ResNet-50,
//!   InceptionV3 forward; ResNet-18 backward), used by the cycle
//!   simulator as workload definitions.
//! * [`tensor`] — a small row-major f32 tensor with shape algebra.
//! * [`layers`] — conv2d / linear / softmax forward passes, the conv and
//!   linear layers each with a reference f32 path and an *emulated* path
//!   that routes every inner product through the bit-accurate IPU datapath.
//! * [`train`] — a tiny from-scratch SGD trainer (an MLP with
//!   hand-written backprop) for the accuracy-vs-precision study (§3.1:
//!   "IPU precision of 12 or more maintains the same accuracy").
//! * [`synthetic`] — deterministic synthetic datasets and tensor fillers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod shape;
pub mod synthetic;
pub mod tensor;
pub mod train;
pub mod zoo;

pub use layers::{conv2d_emulated, conv2d_f32, linear_decoded, linear_f32};
pub use shape::ConvShape;
pub use tensor::Tensor;
pub use zoo::{Network, Pass, Workload};
