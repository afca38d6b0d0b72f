"""Minimal neural-network substrate: layers with hand-derived gradients,
Adam, finite-difference gradient checking, and the model base whose
checkpoints are files of the package's one container (depthnav.container)."""

from .adam import AdamState, adam_step
from .gradcheck import max_param_error
from .layers import (
    Activation,
    Conv2d,
    Deconv2d,
    Dense,
    GRUCell,
    Layer,
    Reshape,
    Sequential,
    conv_out_hw,
    leaky_relu,
    lrelu_fingerprint,
    sample_latent,
    sample_latent_backward,
    shared_rows,
    sigmoid,
)
from .model import Model, fit

__all__ = [
    "Activation", "AdamState", "Conv2d", "Deconv2d", "Dense", "GRUCell",
    "Layer", "Model", "Reshape", "Sequential", "adam_step", "conv_out_hw", "fit",
    "leaky_relu", "lrelu_fingerprint", "max_param_error", "sample_latent",
    "sample_latent_backward", "shared_rows", "sigmoid",
]
