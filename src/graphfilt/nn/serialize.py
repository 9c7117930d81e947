"""Versioned JSON model files.

Parameter arrays travel as base64 little-endian float64 in the order
``model.parameters()`` yields them; sparse-parameter layers embed their
patterns so a file is self-contained. The shift-operator hash pins which
graph the model was trained against.
"""
from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

from ..errors import ConfigError, IncompatibleDims
from ..sparse import Pattern
from .layers import (ArmaLayer, BlockVaryingLayer, EdgeVaryingGatLayer,
                     EdgeVaryingLayer, GcatLayer, HybridGcatLayer,
                     HybridLayer, Model, PolynomialLayer,
                     tie_attention_to_mixing)

FORMAT_VERSION = 1


def _encode(arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _decode(data, shape):
    arr = np.frombuffer(base64.b64decode(data), dtype="<f8").copy()
    return arr.reshape(shape)


def shift_operator_hash(S):
    h = hashlib.sha256()
    h.update(np.int64(S.n_rows).tobytes())
    h.update(np.int64(S.n_cols).tobytes())
    h.update(np.ascontiguousarray(S.row_ptr, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(S.col_idx, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(S.values, dtype="<f8").tobytes())
    return h.hexdigest()


def _pattern_payload(p):
    return {"n": p.n_rows, "row_ptr": p.row_ptr.tolist(),
            "col_idx": p.col_idx.tolist()}


def _pattern_from(d, key, n_nodes):
    """The validated pattern stored under ``key`` of a layer record."""
    payload = d[key]
    try:
        p = Pattern(payload["n"], payload["n"], payload["row_ptr"],
                    payload["col_idx"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc
    if p.n_rows != n_nodes:
        raise ConfigError(f"{key} has {p.n_rows} nodes, "
                          f"the model has {n_nodes}")
    return p


def _integer(d, key):
    """The non-negative integer under ``key``, or ConfigError naming it."""
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"field '{key}' must be a non-negative "
                          f"integer, not {value!r}")
    return value


def _integers(d, key, length=None):
    """The list of integers under ``key``, of ``length`` entries when
    given, or ConfigError naming it."""
    value = d[key]
    if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value):
        raise ConfigError(f"field '{key}' must be a list of integers")
    if length is not None and len(value) != length:
        raise ConfigError(f"field '{key}' has {len(value)} entries, "
                          f"the model has {length} nodes")
    return value


def _layer_payload(layer):
    d = layer.describe()
    if isinstance(layer, EdgeVaryingLayer):
        d["pattern"] = _pattern_payload(layer.pattern)
    if isinstance(layer, HybridLayer):
        d["masked_pattern"] = _pattern_payload(layer.masked_pattern)
    return d


def _layer_from(d, n_nodes):
    kind = d["kind"]
    args = tuple(_integer(d, key) for key in ("f_in", "f_out", "order"))
    nl = d["nonlinearity"]
    bias = d.get("use_bias", True)
    if kind == "polynomial":
        return PolynomialLayer(*args, nonlinearity=nl, use_bias=bias)
    if kind == "block_varying":
        return BlockVaryingLayer(
            *args, block_of_node=_integers(d, "block_of_node", n_nodes),
            n_blocks=_integer(d, "n_blocks"), nonlinearity=nl,
            use_bias=bias)
    if kind == "edge_varying":
        return EdgeVaryingLayer(
            *args, pattern=_pattern_from(d, "pattern", n_nodes),
            nonlinearity=nl, use_bias=bias)
    if kind == "hybrid":
        masked = _pattern_from(d, "masked_pattern", n_nodes)
        return HybridLayer(*args, important=_integers(d, "important"),
                           masked_pattern=masked, nonlinearity=nl,
                           use_bias=bias)
    if kind == "arma":
        f_in, f_out, order = args
        return ArmaLayer(f_in, f_out, _integer(d, "n_poles"), order,
                         _integer(d, "jacobi_order"), nonlinearity=nl,
                         use_bias=bias)
    if kind == "gcat":
        layer = GcatLayer(*args, nonlinearity=nl, use_bias=bias,
                          include_k0=d["include_k0"], weighted=d["weighted"])
        if d.get("tied"):
            tie_attention_to_mixing(layer)
        return layer
    if kind == "ev_gat":
        layer = EdgeVaryingGatLayer(*args, nonlinearity=nl, use_bias=bias,
                                    phi0_mode=d["phi0_mode"],
                                    weighted=d["weighted"])
        if d.get("tied"):
            tie_attention_to_mixing(layer)
        return layer
    if kind == "hybrid_gcat":
        g = d["gat"]
        layer = HybridGcatLayer(*args, nonlinearity=nl, use_bias=bias,
                                phi0_mode=g["phi0_mode"],
                                weighted=g["weighted"])
        if g.get("tied"):
            tie_attention_to_mixing(layer)
        return layer
    raise ConfigError(f"unknown layer kind {kind!r}")


def save_model(model, path, shift=None):
    doc = {
        "format_version": FORMAT_VERSION,
        "architecture": {
            "n_nodes": model.n_nodes,
            "n_outputs": model.n_outputs,
            "output": model.output,
            "readout_mode": model.readout_mode,
            "layers": [_layer_payload(l) for l in model.layers],
        },
        "shift_hash": shift_operator_hash(shift) if shift is not None else None,
        "parameters": [
            {"name": name, "shape": list(t.value.shape),
             "data": _encode(t.value)}
            for name, t in model.parameters()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path, shift=None):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported model format_version {doc.get('format_version')!r}")
    if shift is not None and doc.get("shift_hash") is not None:
        if shift_operator_hash(shift) != doc["shift_hash"]:
            raise ConfigError("model was saved against a different shift")
    try:
        arch = doc["architecture"]
        if not isinstance(arch, dict):
            raise ConfigError("must be an object")
        n_nodes = _integer(arch, "n_nodes")
        records = arch["layers"]
        if not isinstance(records, list):
            raise ConfigError("field 'layers' must be a list")
        head = dict(n_outputs=_integer(arch, "n_outputs"),
                    output=arch["output"], readout_mode=arch["readout_mode"])
    except KeyError as exc:
        raise ConfigError(f"architecture: missing field {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"architecture: {exc}") from exc
    layers = []
    for i, d in enumerate(records):
        if not isinstance(d, dict):
            raise ConfigError(
                f"layer {i}: record must be an object, not "
                f"{type(d).__name__}")
        where = f"layer {i} ({d.get('kind')})"
        try:
            layers.append(_layer_from(d, n_nodes))
        except KeyError as exc:
            raise ConfigError(f"{where}: missing field {exc}") from None
        except (ConfigError, IncompatibleDims) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        model = Model(layers, n_nodes, **head)
    except (ConfigError, IncompatibleDims) as exc:
        raise ConfigError(f"architecture: {exc}") from exc
    live = model.parameters()
    try:
        stored = doc["parameters"]
        if len(stored) != len(live):
            raise ConfigError("parameter list length mismatch")
        for rec, (name, t) in zip(stored, live):
            if rec["name"] != name or tuple(rec["shape"]) != t.value.shape:
                raise ConfigError(
                    f"parameter mismatch: file has {rec['name']}"
                    f"{rec['shape']}, model expects {name}"
                    f"{list(t.value.shape)}")
            t.value = _decode(rec["data"], rec["shape"])
    except KeyError as exc:
        raise ConfigError(f"parameters: missing field {exc}") from None
    return model
