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
                  adam_step, cross_entropy, init_params, smooth_l1,
                  tie_attention_to_mixing)
from .data import build_dataset


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_metric: float
    seconds: float


METRICS_HEADER = "epoch,train_loss,val_loss,val_metric,seconds"


def metrics_to_csv(records):
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(f"{r.epoch},{r.train_loss!r},{r.val_loss!r},"
                     f"{r.val_metric!r},{r.seconds!r}")
    return "\n".join(lines) + "\n"


def _singleton_blocks(selected, n):
    """Selected nodes get their own block; the rest share the last one."""
    block = np.full(n, len(selected), dtype=np.int64)
    for i, node in enumerate(np.sort(np.asarray(selected))):
        block[node] = i
    return block, len(selected) + 1


def build_model(cfg, ctx, n_outputs):
    """Instantiate the configured architecture against a shift context."""
    arch = cfg.architecture
    n = ctx.n
    f_hidden = arch.features
    layers = []
    f_in = 1
    for _ in range(arch.layers):
        common = dict(nonlinearity=arch.nonlinearity, use_bias=arch.bias)
        fam = arch.family
        if fam == "gcnn":
            layer = PolynomialLayer(f_in, f_hidden, arch.order, **common)
        elif fam == "edge_varying":
            layer = EdgeVaryingLayer(f_in, f_hidden, arch.order,
                                     ctx.pattern, **common)
        elif fam == "block_varying":
            sel = select_nodes(ctx.S, arch.selection, arch.n_selected,
                               arch.selection_k)
            block, n_blocks = _singleton_blocks(sel, n)
            layer = BlockVaryingLayer(f_in, f_hidden, arch.order, block,
                                      n_blocks, **common)
        elif fam == "hybrid":
            sel = select_nodes(ctx.S, arch.selection, arch.n_selected,
                               arch.selection_k)
            layer = HybridLayer(f_in, f_hidden, arch.order, sel,
                                ctx.masked_rows_pattern(sel), **common)
        elif fam == "arma":
            layer = ArmaLayer(f_in, f_hidden, arch.n_poles, arch.order,
                              arch.jacobi_order, **common)
        elif fam == "gat":
            layer = GcatLayer(f_in, f_hidden, 1, include_k0=False,
                              weighted=arch.weighted_softmax, **common)
        elif fam == "gcat":
            layer = GcatLayer(f_in, f_hidden, arch.order,
                              weighted=arch.weighted_softmax, **common)
        elif fam == "ev_gat":
            layer = EdgeVaryingGatLayer(f_in, f_hidden, arch.order,
                                        phi0_mode=arch.phi0_mode,
                                        weighted=arch.weighted_softmax,
                                        **common)
        elif fam == "hybrid_gcat":
            layer = HybridGcatLayer(f_in, f_hidden, arch.order,
                                    phi0_mode=arch.phi0_mode,
                                    weighted=arch.weighted_softmax,
                                    **common)
        else:
            raise ConfigError(f"unknown family {fam!r}")
        if arch.tie_attention and fam in ("gat", "gcat", "ev_gat",
                                          "hybrid_gcat"):
            tie_attention_to_mixing(layer)
        layers.append(layer)
        f_in = f_hidden
    output = "linear" if cfg.task == "ratings_regression" else "softmax"
    return Model(layers, n, n_outputs, output=output,
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


def evaluate(model, dataset, split, cfg=None, chunk=1024):
    """Loss plus error rate (classification) or RMSE over observed
    entries (regression) on one split; ConfigError if it has none."""
    _require_samples(dataset, split)
    ctx = dataset.context()
    X, y, mask = dataset.split_arrays(split)
    losses = []
    hits = 0.0
    sq_sum, sq_n = 0.0, 0.0
    for start in range(0, len(X), chunk):
        xb = X[start:start + chunk]
        yb = y[start:start + chunk]
        logits, _ = _forward_batch(model, ctx, xb)
        lv = logits.value
        if dataset.is_classification:
            loss, _ = cross_entropy(lv, yb)
            losses.append((loss, len(xb)))
            hits += float(np.sum(np.argmax(lv, axis=-1) == yb))
        else:
            mb = mask[start:start + chunk]
            delta = cfg.dataset["smooth_l1_delta"] if cfg else 1.0
            loss, _ = smooth_l1(lv, yb, delta, mask=mb)
            losses.append((loss / len(xb), len(xb)))
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
    _, init_seq, shuffle_seq = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.default_rng(init_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
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
    """Dataset build + train + test evaluation, all from one seed."""
    data_seq = np.random.SeedSequence(cfg.seed).spawn(3)[0]
    dataset = build_dataset(cfg, np.random.default_rng(data_seq))
    model, records = train(cfg, dataset)
    test_loss, test_metric = evaluate(model, dataset, "test", cfg)
    return model, records, dataset, {"test_loss": test_loss,
                                     "test_metric": test_metric}
