"""Experiment configuration: a strict JSON schema.

Unknown keys and wrong-typed fields are errors; a typo that silently
fell back to a default would corrupt an experiment.
"""
from __future__ import annotations

import json
import math
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass)

from ..errors import ConfigError
from ..graphs import SELECTIONS
from ..nn.autograd import NONLINEARITIES
from ..nn.layers import PHI0_MODES, READOUT_MODES, _check_choice

TASKS = ("sbm_source_localization", "edge_list_classification",
         "ratings_regression")
FAMILIES = ("gcnn", "edge_varying", "block_varying", "hybrid", "arma",
            "gat", "gcat", "ev_gat", "hybrid_gcat")
ATTENTION_FAMILIES = ("gat", "gcat", "ev_gat", "hybrid_gcat")
_KINDS = {int: "an integer", bool: "true or false", float: "a number",
          str: "a string", dict: "an object",
          list: "a non-empty list of positive integers"}


def _typed(d, key, default, kind):
    """The field ``key`` of JSON type ``kind``; an int is a float here."""
    v = d.pop(key, default)
    if (type(v) is not kind and not (kind is float and type(v) is int)
            or kind is list and not (v and all(
                type(b) is int and b > 0 for b in v))):
        raise ConfigError(f"field '{key}' must be {_KINDS[kind]}, not {v!r}")
    return v


def _read(d, defaults, where):
    """The fields of ``defaults`` read from the JSON object ``d``, each of
    the JSON type of its default (a string for None), and no other key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, not "
                          f"{type(d).__name__}")
    given = dict(d)
    out = {k: _typed(given, k, v, str if v is None else type(v))
           for k, v in defaults.items()}
    if given:
        raise ConfigError(f"unknown keys in {where}: {sorted(given)}")
    return out


def _section(cls, d, where):
    """The dataclass ``cls`` read from ``d`` by its fields' defaults; a
    field with no default is a required string, and one whose default is
    made by a dataclass is an object read the same way."""
    out = _read(d, {f.name: f.default if f.default is not MISSING else
                    None if f.default_factory is MISSING else {}
                    for f in fields(cls)}, where)
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            out[f.name] = _section(f.default_factory, out[f.name], f.name)
    return cls(**out)


def _at_least(values, bounds):
    """ConfigError naming the first field of ``values`` below its bound."""
    for key, low in bounds.items():
        if values[key] < low:
            raise ConfigError(f"field '{key}' must be >= {low}, "
                              f"not {values[key]!r}")


def _finite_positive(key, value):
    """``value`` as a float, or ConfigError naming ``key`` unless it is
    finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"field '{key}' must be finite and > 0, "
                          f"not {value!r}")
    return value


@dataclass
class ArchitectureConfig:
    family: str = "gcnn"
    order: int = 3
    features: int = 16
    layers: int = 1
    n_poles: int = 1
    jacobi_order: int = 1
    n_selected: int = 5
    selection: str = "degree"
    selection_k: int = 3
    phi0_mode: str = "attention"
    weighted_softmax: bool = False
    tie_attention: bool = False
    nonlinearity: str = "relu"
    readout_mode: str = "flatten"
    bias: bool = True

    def __post_init__(self):
        for key, choices in (("family", FAMILIES), ("selection", SELECTIONS),
                             ("phi0_mode", PHI0_MODES),
                             ("nonlinearity", NONLINEARITIES),
                             ("readout_mode", READOUT_MODES)):
            _check_choice(key, getattr(self, key), choices)
        _at_least(vars(self), {"order": 0, "features": 1, "layers": 1,
                               "n_poles": 0, "jacobi_order": 0,
                               "n_selected": 0, "selection_k": 0})
        for key, families, unset in (
                ("tie_attention", ATTENTION_FAMILIES, False),
                ("weighted_softmax", ATTENTION_FAMILIES, False),
                ("phi0_mode", ("ev_gat", "hybrid_gcat"), "attention")):
            if getattr(self, key) != unset and self.family not in families:
                raise ConfigError(
                    f"field '{key}' must be {json.dumps(unset)} on family "
                    f"{self.family!r}: only {', '.join(families)} use it")


@dataclass
class TrainingConfig:
    epochs: int = 40
    batch_size: int = 100
    learning_rate: float = 1e-3

    def __post_init__(self):
        self.learning_rate = _finite_positive("learning_rate",
                                              self.learning_rate)
        _at_least(vars(self), {"epochs": 0, "batch_size": 1})


_DATASET_KEYS = {
    "sbm_source_localization": {
        "block_sizes": [10, 10, 10, 10, 10],
        "p_intra": 0.8,
        "p_inter": 0.2,
        "t_max": 50,
        "n_train": 10240,
        "n_val": 2560,
        "n_test": 2560,
    },
    "edge_list_classification": {
        "graph_path": None,
        "signals_path": None,
        "normalization": "max_eigenvalue",
        "train_fraction": 0.8,
        "val_fraction": 0.1,
    },
    "ratings_regression": {
        "ratings_path": None,
        "target_node": 0,
        "top_k": 40,
        "min_co_rated": 2,
        "smooth_l1_delta": 1.0,
        "train_fraction": 0.9,
        "val_fraction": 0.05,
    },
}


@dataclass
class ExperimentConfig:
    task: str
    seed: int = 0
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    dataset: dict = field(default_factory=dict)
    timing: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        defaults = _DATASET_KEYS[self.task]
        self.dataset = _read(self.dataset, defaults, "dataset")
        _at_least(self.dataset, {k: 0 for k, v in defaults.items()
                                 if type(v) is int})
        if "smooth_l1_delta" in self.dataset:
            _finite_positive("smooth_l1_delta",
                             self.dataset["smooth_l1_delta"])
        for key in ("p_intra", "p_inter", "train_fraction", "val_fraction"):
            if key in self.dataset and not 0.0 <= self.dataset[key] <= 1.0:
                raise ConfigError(f"field '{key}' must lie in [0, 1], "
                                  f"not {self.dataset[key]!r}")
        if "val_fraction" in self.dataset and (
                self.dataset["train_fraction"]
                + self.dataset["val_fraction"] > 1.0):
            raise ConfigError("train_fraction + val_fraction must not "
                              "exceed 1")

    @classmethod
    def from_dict(cls, d):
        return _section(cls, d, "config")

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    def to_dict(self):
        return asdict(self)
