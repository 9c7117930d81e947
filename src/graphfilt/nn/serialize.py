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
import math

import numpy as np

from ..errors import ConfigError, IncompatibleDims
from ..sparse import Pattern
from .layers import GnnLayer, Model

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


def _pattern_from(d, key, n_nodes):
    """The validated pattern stored under ``key`` of a layer record: an
    object of the integer n and the integer lists row_ptr and col_idx."""
    payload = _object(d[key], f"field '{key}'")
    try:
        n = _integer(payload, "n")
        p = Pattern(n, n, _integers(payload, "row_ptr"),
                    _integers(payload, "col_idx"))
    except (ConfigError, ValueError) as exc:
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
            isinstance(v, bool) or not isinstance(v, int)
            or not -2**63 <= v < 2**63 for v in value):
        raise ConfigError(f"field '{key}' must be a list of integers")
    if length is not None and len(value) != length:
        raise ConfigError(f"field '{key}' has {len(value)} entries, "
                          f"the model has {length} nodes")
    return value


def _object(value, what):
    """``value`` if it is a JSON object, or ConfigError naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, not "
                          f"{type(value).__name__}")
    return value


def _boolean(d, key, default=None):
    """The JSON boolean under ``key`` (``default`` when it is absent and
    a default is given), or ConfigError naming it."""
    value = d[key] if default is None else d.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"field '{key}' must be true or false, "
                          f"not {value!r}")
    return value


def _stored_shapes(stored, prefix):
    """Shapes of the parameter records whose name starts with ``prefix``,
    each a list of non-negative integers that its record's data can hold."""
    return [r["shape"] for r in stored
            if str(r.get("name")).startswith(prefix)
            and isinstance(r.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in r["shape"])
            and 32 * math.prod(r["shape"]) <= 3 * len(str(r.get("data")))]


def _match(key, value, held):
    """ConfigError unless the stored axes ``held`` are all ``value``."""
    if set(held) != {value}:
        raise ConfigError(f"field '{key}' is {value!r}, but the stored "
                          f"parameters have {sorted(set(held))}")


def _sizes(d, shapes):
    """(f_in, f_out, order) of layer record ``d``, checked with n_poles
    and n_blocks against its stored parameter ``shapes`` before anything
    is allocated from them."""
    f_in, f_out, order = (_integer(d, k) for k in ("f_in", "f_out", "order"))
    mats = [s for s in shapes if len(s) >= 2]
    _match("f_in", f_in, [s[-2] for s in mats])
    _match("f_out", f_out, [s[-1] for s in mats])
    for key in ("n_poles", "n_blocks"):
        if key in d:
            _match(key, _integer(d, key), [s[0] for s in mats if len(s) == 3])
    if order >= len(shapes):
        raise ConfigError(f"field 'order' is {order}, but the layer stores "
                          f"{len(shapes)} parameters")
    return f_in, f_out, order


def _gat_fields(d, key, n_nodes):
    """The ev_gat fields of the inner record of a hybrid_gcat record
    ``d``, which must repeat what ``d`` implies."""
    att = _object(d[key], f"field '{key}'")
    for k, value in dict(f_in=d["f_in"], f_out=d["f_out"], order=d["order"],
                         kind="ev_gat", nonlinearity="identity",
                         use_bias=False).items():
        if type(att.get(k)) is not type(value) or att[k] != value:
            raise ConfigError(f"field 'gat.{k}' must be {value!r}, "
                              f"not {att.get(k)!r}")
    return _fields(_KINDS["ev_gat"], att, n_nodes)


# one reader per record field: (record, key, n_nodes) -> its value
_READERS = {
    "block_of_node": _integers, "important": lambda d, k, n: _integers(d, k),
    "pattern": _pattern_from, "masked_pattern": _pattern_from,
    "phi0_mode": lambda d, k, n: d[k], "gat": _gat_fields,
    **dict.fromkeys(("n_blocks", "n_poles", "jacobi_order"),
                    lambda d, k, n: _integer(d, k)),
    **dict.fromkeys(("include_k0", "weighted"),
                    lambda d, k, n: _boolean(d, k)),
    "tied": lambda d, k, n: _boolean(d, k, False),
}
_KINDS = {cls.kind: cls for cls in GnnLayer.__subclasses__()}  # every kind


def _fields(cls, d, n_nodes):
    """Constructor arguments from the ``cls.fields`` of record ``d``, an
    inner record's merged in."""
    kw = {k: _READERS[k](d, k, n_nodes) for k in cls.fields}
    kw.update(kw.pop("gat", {}))
    return kw


def _layer_from(d, n_nodes, shapes):
    kind = d["kind"]
    sizes = dict(zip(("f_in", "f_out", "order"), _sizes(d, shapes)))
    common = dict(nonlinearity=d["nonlinearity"],
                  use_bias=_boolean(d, "use_bias", True))
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown layer kind {kind!r}")
    layer = cls(**sizes, **_fields(cls, d, n_nodes), **common)
    # a kind has heads when its record, or its inner one, holds 'tied'
    if not {"tied", "gat"} & set(cls.fields) and _boolean(d, "tied", False):
        raise IncompatibleDims(f"layer kind {kind!r} has no attention head")
    return layer


def save_model(model, path, shift=None):
    doc = {
        "format_version": FORMAT_VERSION,
        "architecture": {
            "n_nodes": model.n_nodes,
            "n_outputs": model.n_outputs,
            "output": model.output,
            "readout_mode": model.readout_mode,
            "layers": [layer.describe() for layer in model.layers],
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
        doc = _object(json.load(fh), "model file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported model format_version {doc.get('format_version')!r}")
    if shift is not None and doc.get("shift_hash") is not None:
        if shift_operator_hash(shift) != doc["shift_hash"]:
            raise ConfigError("model was saved against a different shift")
    try:
        arch = _object(doc["architecture"], "record")
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
    if "parameters" not in doc:
        raise ConfigError("parameters: missing field 'parameters'")
    stored = doc["parameters"]
    if not isinstance(stored, list):
        raise ConfigError("field 'parameters' must be a list")
    for i, rec in enumerate(stored):
        _object(rec, f"parameter {i}: record")
    layers = []
    for i, d in enumerate(records):
        _object(d, f"layer {i}: record")
        if layers and d.get("f_in") != layers[-1].f_out:
            raise ConfigError("architecture: adjacent layer features must "
                              "chain")
        where = f"layer {i} ({d.get('kind')})"
        try:
            layers.append(_layer_from(d, n_nodes,
                                      _stored_shapes(stored, f"L{i}.")))
        except KeyError as exc:
            raise ConfigError(f"{where}: missing field {exc}") from None
        except (ConfigError, IncompatibleDims) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        readout = _stored_shapes(stored, "readout_")
        _match("n_outputs", head["n_outputs"], [s[-1] for s in readout if s])
        f_last = layers[-1].f_out if layers else 1
        if head["readout_mode"] == "flatten" and f_last:
            _match("n_nodes", n_nodes, [s[0] // f_last for s in readout
                                        if len(s) == 2 and s[0] % f_last == 0])
        model = Model(layers, n_nodes, **head)
    except (ConfigError, IncompatibleDims) as exc:
        raise ConfigError(f"architecture: {exc}") from exc
    live = model.parameters()
    if len(stored) != len(live):
        raise ConfigError("parameter list length mismatch")
    try:
        for i, (rec, (name, t)) in enumerate(zip(stored, live)):
            shape = list(t.value.shape)
            if rec["name"] != name or rec["shape"] != shape:
                raise ConfigError(
                    f"parameter {i}: file has {rec['name']!r} of shape "
                    f"{rec['shape']!r}, model expects {name!r} of {shape}")
            try:
                t.value = _decode(rec["data"], shape)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"parameter {i} ({name}): data does not "
                                  f"decode to shape {shape}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"parameters: missing field {exc}") from None
    return model
