"""Hypothesis properties of experiment configs: a valid config with one
architecture, training or dataset field replaced by any JSON value
either loads, every field of its default's type, no integer negative,
every string one of its field's choices and smooth_l1_delta finite and
positive, or raises ConfigError."""
import copy
import math
from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.errors import ConfigError  # noqa: E402
from graphfilt.graphs import SELECTIONS  # noqa: E402
from graphfilt.harness import (ArchitectureConfig,  # noqa: E402
                               ExperimentConfig, TrainingConfig)
from graphfilt.harness.config import _DATASET_KEYS, FAMILIES  # noqa: E402
from graphfilt.nn.autograd import NONLINEARITIES  # noqa: E402
from graphfilt.nn.layers import PHI0_MODES, READOUT_MODES  # noqa: E402

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=8),
              st.sampled_from(["gcnn", "arma", "degree", "identity",
                               "flatten", "mean_pool", "leaky_relu",
                               "diffusion_centrality", "attention"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=2)),
    max_leaves=4)

BASE = {
    "task": "sbm_source_localization",
    "architecture": {"family": "hybrid", "order": 2, "features": 4,
                     "layers": 1, "n_selected": 3},
    "training": {"epochs": 2, "batch_size": 16, "learning_rate": 1e-3},
}
SECTIONS = {"architecture": ArchitectureConfig, "training": TrainingConfig}
CHOICES = {"family": FAMILIES, "selection": SELECTIONS,
           "phi0_mode": PHI0_MODES, "nonlinearity": NONLINEARITIES,
           "readout_mode": READOUT_MODES}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SECTIONS)), st.data(), json_values)
def test_one_replaced_field_loads_or_raises_config_error(section, data,
                                                         value):
    cls = SECTIONS[section]
    field = data.draw(st.sampled_from([f.name for f in fields(cls)]),
                      label="field")
    raw = copy.deepcopy(BASE)
    raw[section][field] = value
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    loaded = getattr(cfg, section)
    for f in fields(cls):
        v = getattr(loaded, f.name)
        assert type(v) is type(f.default), f.name
        assert type(v) is not int or v >= 0, f.name
        assert type(v) is not str or v in CHOICES[f.name], f.name


# the required paths of each task; the config does not open them
PATHS = {"sbm_source_localization": {},
         "edge_list_classification": {"graph_path": "g.edgelist",
                                      "signals_path": "signals.csv"},
         "ratings_regression": {"ratings_path": "ratings.csv"}}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PATHS)), st.data(),
       st.one_of(json_values, st.integers(-3, 3),
                 st.floats(-2.0, 2.0, allow_nan=False)))
def test_one_replaced_dataset_field_loads_or_raises_config_error(
        task, data, value):
    defaults = _DATASET_KEYS[task]
    key = data.draw(st.sampled_from(sorted(defaults)), label="field")
    raw = {"task": task, "dataset": dict(PATHS[task], **{key: value})}
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    for k, default in defaults.items():
        v = cfg.dataset[k]
        kind = str if default is None else type(default)
        assert type(v) is kind or kind is float and type(v) is int, k
        assert type(v) is not int or v >= 0, k
    if "smooth_l1_delta" in defaults:
        delta = cfg.dataset["smooth_l1_delta"]
        assert math.isfinite(delta) and delta > 0
