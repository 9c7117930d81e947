"""Model construction, training loop, and evaluation."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NonFiniteValue
from ..graphs import select_nodes
from ..nn import (AdamState, ArmaLayer, BlockVaryingLayer,
                  EdgeVaryingGatLayer, EdgeVaryingLayer, GcatLayer,
                  HybridGcatLayer, HybridLayer, Model, PolynomialLayer,
                  adam_step, cross_entropy, init_params, smooth_l1)
from .data import build_dataset


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_metric: float
    seconds: float


METRICS_HEADER = "epoch,train_loss,val_loss,val_metric,seconds"
_EVAL_CHUNK = 1024  # samples per forward pass in evaluate


def seed_streams(seed):
    """The dataset, init and shuffle generators spawned from ``seed``."""
    return tuple(np.random.default_rng(s)
                 for s in np.random.SeedSequence(seed).spawn(3))


def metrics_to_csv(records):
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(f"{r.epoch},{r.train_loss!r},{r.val_loss!r},"
                     f"{r.val_metric!r},{r.seconds!r}")
    return "\n".join(lines) + "\n"


def _singleton_blocks(selected, n):
    """Selected nodes get their own block; the rest share the last one."""
    block = np.full(n, len(selected), dtype=np.int64)
    block[np.sort(selected)] = np.arange(len(selected))
    return block, len(selected) + 1


def build_model(cfg, ctx, n_outputs):
    """Instantiate the configured architecture against a shift context."""
    arch = cfg.architecture
    F, K = arch.features, arch.order
    common = dict(nonlinearity=arch.nonlinearity, use_bias=arch.bias)
    att = dict(common, weighted=arch.weighted_softmax,
               tied=arch.tie_attention)
    if arch.family in ("block_varying", "hybrid"):
        sel = select_nodes(ctx.S, arch.selection, arch.n_selected,
                           arch.selection_k)
    build = {
        "gcnn": lambda f: PolynomialLayer(f, F, K, **common),
        "edge_varying": lambda f: EdgeVaryingLayer(f, F, K, ctx.pattern,
                                                   **common),
        "block_varying": lambda f: BlockVaryingLayer(
            f, F, K, *_singleton_blocks(sel, ctx.n), **common),
        "hybrid": lambda f: HybridLayer(
            f, F, K, sel, ctx.masked_rows_pattern(sel), **common),
        "arma": lambda f: ArmaLayer(f, F, arch.n_poles, K, arch.jacobi_order,
                                    **common),
        "gat": lambda f: GcatLayer(f, F, 1, include_k0=False, **att),
        "gcat": lambda f: GcatLayer(f, F, K, **att),
        "ev_gat": lambda f: EdgeVaryingGatLayer(
            f, F, K, phi0_mode=arch.phi0_mode, **att),
        "hybrid_gcat": lambda f: HybridGcatLayer(
            f, F, K, phi0_mode=arch.phi0_mode, **att),
    }[arch.family]
    layers = [build(1 if i == 0 else F) for i in range(arch.layers)]
    output = "linear" if cfg.task == "ratings_regression" else "softmax"
    return Model(layers, ctx.n, n_outputs, output=output,
                 readout_mode=arch.readout_mode)


def _batch_loss(cfg, logits, y, mask):
    if cfg.task == "ratings_regression":
        delta = cfg.dataset["smooth_l1_delta"]
        loss, grad = smooth_l1(logits, y, delta, mask=mask)
        n = len(logits)
        return loss / n, grad / n
    return cross_entropy(logits, y)


def _forward_batch(model, ctx, xb):
    return model.forward(ctx, xb[:, :, None])


def _require_samples(dataset, split):
    idx = dataset.splits[split]
    if len(idx) == 0:
        raise ConfigError(f"split {split!r} is empty")
    if not dataset.is_classification and not dataset.target_mask[idx].any():
        raise ConfigError(f"split {split!r} has no observed target")


def evaluate(model, dataset, split, cfg):
    """Loss plus error rate (classification) or RMSE over observed
    entries (regression) on one split; ConfigError if it has none."""
    _require_samples(dataset, split)
    ctx = dataset.context()
    X, y, mask = dataset.split_arrays(split)
    losses, hits, sq_sum, sq_n = [], 0.0, 0.0, 0.0
    for start in range(0, len(X), _EVAL_CHUNK):
        rows = slice(start, start + _EVAL_CHUNK)
        xb, yb = X[rows], y[rows]
        mb = mask[rows] if mask is not None else None
        logits, _ = _forward_batch(model, ctx, xb)
        lv = logits.value
        losses.append((_batch_loss(cfg, lv, yb, mb)[0], len(xb)))
        if dataset.is_classification:
            hits += float(np.sum(np.argmax(lv, axis=-1) == yb))
        else:
            resid = (lv - yb) * mb
            sq_sum += float(np.sum(resid * resid))
            sq_n += float(np.sum(mb))
    total = sum(n for _, n in losses)
    loss = sum(l * n for l, n in losses) / total
    if dataset.is_classification:
        metric = 1.0 - hits / total
    else:
        metric = float(np.sqrt(sq_sum / sq_n))
    return loss, metric


def train(cfg, dataset):
    """Seeded training; returns (best-validation model, metric records).

    An empty train or val split, or one with no observed regression
    target, raises ConfigError before the first epoch. A non-finite batch
    loss, parameter gradient or validation loss raises NonFiniteValue
    naming the epoch, plus the batch start and the parameter where they
    apply.

    The wall-time column is recorded only when cfg.timing is set, so the
    metrics stream stays byte-identical for a fixed (config, seed).
    """
    _, init_rng, shuffle_rng = seed_streams(cfg.seed)
    for split in ("train", "val"):
        _require_samples(dataset, split)
    ctx = dataset.context()
    model = build_model(cfg, ctx, dataset.n_outputs)
    init_params(model, init_rng, shift=ctx)
    state = AdamState([t for _, t in model.parameters()],
                      learning_rate=cfg.training.learning_rate)
    records = []
    train_idx = dataset.splits["train"]
    X, y, mask = dataset.split_arrays("train")
    best_loss = np.inf
    best_snap = model.snapshot()
    bs = cfg.training.batch_size
    for epoch in range(cfg.training.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_idx))
        epoch_loss, seen = 0.0, 0
        for start in range(0, len(order), bs):
            sel = order[start:start + bs]
            xb, yb = X[sel], y[sel]
            mb = mask[sel] if mask is not None else None
            logits, tape = _forward_batch(model, ctx, xb)
            loss, grad = _batch_loss(cfg, logits.value, yb, mb)
            where = f"epoch {epoch}, batch starting at {start}"
            if not np.isfinite(loss):
                raise NonFiniteValue(f"{where}: loss is {loss}")
            model.zero_grad()
            tape.backward(output_grad=grad)
            for name, t in model.parameters():
                if t.grad is not None and not np.isfinite(t.grad).all():
                    raise NonFiniteValue(
                        f"{where}: gradient of {name} is not finite")
            adam_step(state)
            model.post_update(ctx)
            epoch_loss += loss * len(sel)
            seen += len(sel)
        val_loss, val_metric = evaluate(model, dataset, "val", cfg)
        if not np.isfinite(val_loss):
            raise NonFiniteValue(
                f"epoch {epoch}: validation loss is {val_loss}")
        seconds = time.perf_counter() - t0 if cfg.timing else 0.0
        records.append(MetricsRecord(epoch, epoch_loss / seen,
                                     val_loss, val_metric, seconds))
        if val_loss < best_loss:
            best_loss = val_loss
            best_snap = model.snapshot()
    model.restore(best_snap)
    return model, records


def run_experiment(cfg):
    """Dataset build + train + test evaluation, all from one seed; an
    empty test split raises ConfigError before training."""
    dataset = build_dataset(cfg, seed_streams(cfg.seed)[0])
    _require_samples(dataset, "test")
    model, records = train(cfg, dataset)
    test_loss, test_metric = evaluate(model, dataset, "test", cfg)
    return model, records, dataset, {"test_loss": test_loss,
                                     "test_metric": test_metric}
