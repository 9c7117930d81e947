"""Write the stored reference outputs that tests/test_reference_outputs.py
compares against.

Run from the repository root:

    PYTHONPATH=src python tests/make_reference_outputs.py

The fixture is one seeded SBM source-localization dataset (N = 12, three
communities). ``fixture.npz`` holds its graph's edges, labels and splits.
``families.npz`` holds one vector per case of ``CASES``, the arrays of
``case_parts`` raveled in order: the initialised parameters, the logits
and loss of one batch of B = 4 training samples, every parameter
gradient, and the parameters after two ADAM steps.

The cases are the nine families at one and two layers, with ARMA at
Jacobi order 2. They read out by mean pooling, which keeps the files
small, and use LeakyReLU, so that no unit is dead for the whole batch
and every parameter has a gradient. The VARIANTS add tied, weighted and
identity-phi0 attention, gcnn with the defaults' ReLU and flattening
readout, and ARMA at Jacobi order 1. A change that regenerates
these files says in CHANGES.md which families moved and by how much.
"""
import os
import sys

import numpy as np

from graphfilt.harness import ExperimentConfig, build_dataset
from graphfilt.harness.config import ATTENTION_FAMILIES, FAMILIES
from graphfilt.harness.train import build_model, seed_streams
from graphfilt.nn import AdamState, adam_step, cross_entropy, init_params

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SEED = 7
BATCH = 4
DATASET = {"block_sizes": [4, 4, 4], "p_intra": 0.6, "p_inter": 0.1,
           "t_max": 3, "n_train": 8, "n_val": 4, "n_test": 4}
ARCHITECTURE = {"order": 2, "features": 2, "n_poles": 2, "jacobi_order": 2,
                "n_selected": 2, "readout_mode": "mean_pool",
                "nonlinearity": "leaky_relu"}
VARIANTS = {"tied": ({"tie_attention": True}, ATTENTION_FAMILIES),
            "weighted": ({"weighted_softmax": True}, ATTENTION_FAMILIES),
            "identity": ({"phi0_mode": "identity"}, ("ev_gat", "hybrid_gcat")),
            "relu_flatten": ({"nonlinearity": "relu",
                              "readout_mode": "flatten"}, ("gcnn",)),
            "jacobi1": ({"jacobi_order": 1}, ("arma",))}


def _cases():
    """(case name, family, architecture fields) for every stored case."""
    for family in FAMILIES:
        for layers in (1, 2):
            arch = dict(ARCHITECTURE, family=family, layers=layers)
            yield f"{family}-{layers}", family, arch
            for variant, (fields, families) in VARIANTS.items():
                if family in families:
                    yield (f"{family}-{layers}-{variant}", family,
                           dict(arch, **fields))


CASES = list(_cases())


def config(arch=None):
    return ExperimentConfig.from_dict({
        "task": "sbm_source_localization", "seed": SEED,
        "architecture": arch or {}, "dataset": DATASET,
        "training": {"learning_rate": 0.01}})


def sbm_fixture():
    """The dataset, and its edges, labels and splits by name."""
    dataset = build_dataset(config(), seed_streams(SEED)[0])
    S = dataset.S
    rows = S.entry_rows()
    upper = rows < S.col_idx
    arrays = {"edges": np.stack([rows[upper], S.col_idx[upper]], axis=1),
              "labels": dataset.labels}
    arrays.update({f"split|{k}": v for k, v in dataset.splits.items()})
    return dataset, arrays


def _step(model, ctx, X, y):
    """One forward and backward pass; returns (logits, loss)."""
    logits, tape = model.forward(ctx, X[:, :, None])
    loss, grad = cross_entropy(logits.value, y)
    model.zero_grad()
    tape.backward(output_grad=grad)
    return logits.value, loss


def case_parts(dataset, arch):
    """One case's outputs as (label, array) pairs, in stored order: the
    logits, the loss, then each parameter's initial value, gradient and
    value after two ADAM steps, labelled ``init|name`` and so on."""
    cfg = config(arch)
    ctx = dataset.context()
    model = build_model(cfg, ctx, dataset.n_outputs)
    init_params(model, seed_streams(SEED)[1], shift=ctx)
    named = model.parameters()
    init = [t.value.copy() for _, t in named]
    X, y, _ = dataset.split_arrays("train")
    logits, loss = _step(model, ctx, X[:BATCH], y[:BATCH])
    grad = [np.zeros_like(t.value) if t.grad is None else t.grad.copy()
            for _, t in named]
    state = AdamState([t for _, t in named],
                      learning_rate=cfg.training.learning_rate)
    adam_step(state)
    model.post_update(ctx)
    _step(model, ctx, X[BATCH:2 * BATCH], y[BATCH:2 * BATCH])
    adam_step(state)
    model.post_update(ctx)
    parts = [("logits", logits), ("loss", np.array(loss))]
    for kind, values in (("init", init), ("grad", grad),
                         ("adam2", [t.value for _, t in named])):
        parts += [(f"{kind}|{name}", v) for (name, _), v in zip(named, values)]
    return parts


def main():
    os.makedirs(DATA, exist_ok=True)
    dataset, arrays = sbm_fixture()
    np.savez_compressed(os.path.join(DATA, "fixture.npz"), **arrays)
    stored = {}
    for case, _, arch in CASES:
        stored[case] = np.concatenate(
            [v.ravel() for _, v in case_parts(dataset, arch)])
    np.savez_compressed(os.path.join(DATA, "families.npz"), **stored)
    for name in ("fixture.npz", "families.npz"):
        size = os.path.getsize(os.path.join(DATA, name))
        print(f"wrote tests/data/{name} ({size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
