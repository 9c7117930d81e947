"""Experiment configuration: a strict JSON schema.

Unknown keys and wrong-typed fields are errors; a typo that silently
fell back to a default would corrupt an experiment.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..errors import ConfigError

TASKS = ("sbm_source_localization", "edge_list_classification",
         "ratings_regression")
FAMILIES = ("gcnn", "edge_varying", "block_varying", "hybrid", "arma",
            "gat", "gcat", "ev_gat", "hybrid_gcat")
_KINDS = {int: "an integer", bool: "true or false", float: "a number",
          str: "a string", list: "a non-empty list of positive integers"}


def _take(d, key, default=None, required=False):
    if required and key not in d:
        raise ConfigError(f"missing required key {key!r}")
    return d.pop(key, default)


def _typed(d, key, default, kind):
    """The field ``key`` of JSON type ``kind``; an int is a float here."""
    v = d.pop(key, default)
    if (type(v) is not kind and not (kind is float and type(v) is int)
            or kind is list and not (v and all(
                type(b) is int and b > 0 for b in v))):
        raise ConfigError(f"field '{key}' must be {_KINDS[kind]}, not {v!r}")
    return v


def _no_extras(d, where):
    if d:
        raise ConfigError(f"unknown keys in {where}: {sorted(d)}")


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

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        cfg = cls(
            family=_take(d, "family", "gcnn"),
            order=_typed(d, "order", 3, int),
            features=_typed(d, "features", 16, int),
            layers=_typed(d, "layers", 1, int),
            n_poles=_typed(d, "n_poles", 1, int),
            jacobi_order=_typed(d, "jacobi_order", 1, int),
            n_selected=_typed(d, "n_selected", 5, int),
            selection=_take(d, "selection", "degree"),
            selection_k=_typed(d, "selection_k", 3, int),
            phi0_mode=_take(d, "phi0_mode", "attention"),
            weighted_softmax=_typed(d, "weighted_softmax", False, bool),
            tie_attention=_typed(d, "tie_attention", False, bool),
            nonlinearity=_take(d, "nonlinearity", "relu"),
            readout_mode=_take(d, "readout_mode", "flatten"),
            bias=_typed(d, "bias", True, bool),
        )
        _no_extras(d, "architecture")
        if cfg.family not in FAMILIES:
            raise ConfigError(f"unknown family {cfg.family!r}")
        if cfg.order < 0 or cfg.features < 1 or cfg.layers < 1:
            raise ConfigError("order must be >= 0; features, layers >= 1")
        return cfg


@dataclass
class TrainingConfig:
    epochs: int = 40
    batch_size: int = 100
    learning_rate: float = 1e-3

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        cfg = cls(
            epochs=_typed(d, "epochs", 40, int),
            batch_size=_typed(d, "batch_size", 100, int),
            learning_rate=float(_typed(d, "learning_rate", 1e-3, float)),
        )
        _no_extras(d, "training")
        if not (math.isfinite(cfg.learning_rate) and cfg.learning_rate > 0):
            raise ConfigError("field 'learning_rate' must be finite and > 0, "
                              f"not {cfg.learning_rate!r}")
        if cfg.epochs < 0 or cfg.batch_size < 1:
            raise ConfigError("invalid training settings")
        return cfg


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
    task: str = "sbm_source_localization"
    seed: int = 0
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    dataset: dict = field(default_factory=dict)
    timing: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        given = dict(self.dataset)
        # each field has the JSON type of its default; a path is a string
        self.dataset = {k: _typed(given, k, v, str if v is None else type(v))
                        for k, v in _DATASET_KEYS[self.task].items()}
        _no_extras(given, "dataset")
        for key in ("p_intra", "p_inter", "train_fraction", "val_fraction"):
            if key in self.dataset and not 0.0 <= self.dataset[key] <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1]")
        if "val_fraction" in self.dataset and (
                self.dataset["train_fraction"]
                + self.dataset["val_fraction"] > 1.0):
            raise ConfigError("train_fraction + val_fraction must not "
                              "exceed 1")

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        cfg = cls(
            task=_take(d, "task", required=True),
            seed=_typed(d, "seed", 0, int),
            architecture=ArchitectureConfig.from_dict(_take(d, "architecture", {})),
            training=TrainingConfig.from_dict(_take(d, "training", {})),
            dataset=dict(_take(d, "dataset", {})),
            timing=_typed(d, "timing", False, bool),
        )
        _no_extras(d, "config")
        return cfg

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    def to_dict(self):
        return {
            "task": self.task,
            "seed": self.seed,
            "architecture": vars(self.architecture).copy(),
            "training": vars(self.training).copy(),
            "dataset": dict(self.dataset),
            "timing": self.timing,
        }
