"""Hypothesis properties of model files: a saved model of every layer
kind with one field of one record replaced by any JSON value either loads
or raises ConfigError, and one that holds a value other than an integer
in a pattern field raises ConfigError naming the field. The records are
the layer records, the attention and pattern records inside them, and
the parameter records."""
import copy
import json
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.errors import ConfigError  # noqa: E402
from graphfilt.nn import (Model, init_params, load_model,  # noqa: E402
                          save_model, tie_attention_to_mixing)
from test_kernel import FAMILIES, dense_context  # noqa: E402

# any integer: a size is checked against the stored parameter shapes
# before anything is allocated from it
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(max_value=8),
    st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(max_value=8),
                    max_size=2))


def _saved_document():
    """The JSON document of a 2-feature model holding every family, the
    attention families gcat, ev_gat and hybrid_gcat tied."""
    ctx = dense_context()
    layers = []
    for i, family in enumerate(sorted(FAMILIES)):
        layer = FAMILIES[family](1 if i == 0 else 2, 2, ctx,
                                 np.array([1, 4]))
        if family in ("gcat", "ev_gat", "hybrid_gcat"):
            tie_attention_to_mixing(layer)
        layers.append(layer)
    model = Model(layers, ctx.n, 2)
    init_params(model, np.random.default_rng(3), shift=ctx)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        save_model(model, path, shift=ctx.S)
        load_model(path, shift=ctx.S)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


SAVED = _saved_document()


def _records(doc):
    out = []
    for layer in doc["architecture"]["layers"]:
        out.append(layer)
        out += [v for v in layer.values() if isinstance(v, dict)]
    return out + doc["parameters"]


@settings(max_examples=150, deadline=None)
@given(st.data(), json_values)
def test_one_replaced_field_loads_or_raises_config_error(data, value):
    doc = copy.deepcopy(SAVED)
    record = data.draw(st.sampled_from(_records(doc)), label="record")
    record[data.draw(st.sampled_from(sorted(record)), label="field")] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            load_model(path)
        except ConfigError:
            pass


# every pattern field, and each entry of the index lists
PATTERN_SLOTS = [
    (i, key, field, None if field == "n" else j)
    for i, layer in enumerate(SAVED["architecture"]["layers"])
    for key in ("pattern", "masked_pattern") if key in layer
    for field in ("n", "row_ptr", "col_idx")
    for j in ([None] if field == "n" else range(len(layer[key][field])))]
non_integers = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.integers(min_value=0, max_value=8).map(float),
    st.integers(min_value=0, max_value=8).map(str),
    st.lists(st.integers(), max_size=2))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PATTERN_SLOTS), non_integers)
def test_pattern_field_other_than_an_integer_is_named(slot, value):
    i, key, field, j = slot
    doc = copy.deepcopy(SAVED)
    pattern = doc["architecture"]["layers"][i][key]
    if j is None:
        pattern[field] = value
    else:
        pattern[field][j] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(ConfigError,
                           match=f"invalid {key}: field '{field}' must be"):
            load_model(path)
