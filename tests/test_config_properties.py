"""Hypothesis property of experiment configs: a valid config with one
architecture or training field replaced by any JSON value either loads,
every field of its dataclass's type, no integer negative and every
string one of its field's choices, or raises ConfigError."""
import copy
from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.errors import ConfigError  # noqa: E402
from graphfilt.graphs import SELECTIONS  # noqa: E402
from graphfilt.harness import (ArchitectureConfig,  # noqa: E402
                               ExperimentConfig, TrainingConfig)
from graphfilt.harness.config import FAMILIES  # noqa: E402
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
