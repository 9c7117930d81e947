"""Deterministic parameter initialization, by parameter name.

Mixing matrices and attention mixers ("poly", "block", "mixing",
"att_B") draw from the uniform Glorot range with fans (F_in, F_out), and
attention scorers ("att_e") with fans (2 F_out, 1). Scalar filter entries
("ev_phi0", "ev_phi", "hybrid_phi0", "hybrid_phi", "arma_alpha") draw from
uniform(-1/(K+1), 1/(K+1)) and ARMA residues from uniform(-0.1, 0.1); ARMA
poles start beyond the diagonal range, so the singularity guard holds by
construction.
"""
from __future__ import annotations

import numpy as np

SMALL_UNIFORM = 0.1
BIAS_INIT = 0.05  # keeps rectified units receptive on nonnegative inputs


def _uniform(rng, shape, s):
    return rng.uniform(-s, s, size=shape)


def _glorot(rng, shape, fan_in, fan_out):
    return _uniform(rng, shape, np.sqrt(6.0 / (fan_in + fan_out)))


def _initial_value(name, shape, layer, rng, shift):
    """The starting value of the layer parameter called ``name``."""
    fi, fo = layer.f_in, layer.f_out
    if name in ("poly", "block", "mixing", "att_B"):
        return _glorot(rng, shape, fi, fo)
    if name == "att_e":
        return _glorot(rng, shape, 2 * fo, 1)
    if name in ("ev_phi0", "ev_phi", "hybrid_phi0", "hybrid_phi",
                "arma_alpha"):
        return _uniform(rng, shape, 1.0 / (layer.order + 1))
    if name == "arma_beta":
        return _uniform(rng, shape, SMALL_UNIFORM)
    if name == "arma_gamma":
        if shift is None:
            raise ValueError("ARMA initialization needs the shift operator")
        diag = shift.diag if hasattr(shift, "diag") else shift.diagonal()
        top = float(np.max(np.abs(diag), initial=0.0))
        poles = top + 1.0 + np.arange(1, shape[0] + 1) * 0.5
        return np.broadcast_to(poles[:, None, None], shape).copy()
    if name == "bias":
        return np.full(shape, BIAS_INIT)
    raise ValueError(f"no initializer for parameter {name!r}")


def init_params(model, rng, shift=None):
    """Fill every parameter of the model in declaration order.

    ARMA layers need the bound shift operator (its diagonal places the
    pole starting points); pass the SparseMatrix or a ShiftContext.
    """
    for layer in model.layers:
        for name, t in layer.named_params():
            t.value = _initial_value(name, t.value.shape, layer, rng, shift)
    shape = model.readout_w.value.shape  # (fan_in, n_outputs)
    model.readout_w.value = _glorot(rng, shape, *shape)
    model.readout_b.value = np.zeros(model.n_outputs)
