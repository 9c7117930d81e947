"""Differentiable layers, gradient engine, optimizer, and validation."""
from .autograd import Tape, Tensor
from .functional import cross_entropy, smooth_l1
from .gradcheck import GradCheckReport, finite_difference_check
from .init import init_params
from .layers import (ArmaLayer, AttentionParams, BlockVaryingLayer,
                     EdgeVaryingGatLayer, EdgeVaryingLayer, GcatLayer,
                     GnnLayer, HybridGcatLayer, HybridLayer, Model,
                     PolynomialLayer, ShiftContext)
from .optim import AdamState, adam_step
from .serialize import load_model, save_model, shift_operator_hash

__all__ = [
    "AdamState", "ArmaLayer", "AttentionParams", "BlockVaryingLayer",
    "EdgeVaryingGatLayer", "EdgeVaryingLayer", "GcatLayer", "GnnLayer",
    "GradCheckReport", "HybridGcatLayer", "HybridLayer", "Model",
    "PolynomialLayer", "ShiftContext", "Tape", "Tensor", "adam_step",
    "cross_entropy", "finite_difference_check", "init_params",
    "load_model", "save_model", "shift_operator_hash", "smooth_l1",
]
