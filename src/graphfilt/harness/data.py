"""Dataset generation, ingestion, and export."""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import CountTooLarge, DegenerateColumn, ParseError
from ..graphs import (Graph, block_labels, build_shift, check_size,
                      finite_floats, load_graph, sbm_generate, text_lines,
                      write_edge_list)
from ..nn import ShiftContext
from ..sparse import SparseMatrix, power_iteration_lambda_max, spmv


@dataclass
class Dataset:
    """Graph signals over one shift operator with fixed splits.

    Classification datasets fill ``labels``; regression datasets fill
    ``targets`` plus an observation mask of the same shape.
    """

    S: SparseMatrix
    X: np.ndarray
    labels: np.ndarray = None
    targets: np.ndarray = None
    target_mask: np.ndarray = None
    splits: dict = field(default_factory=dict)
    n_outputs: int = 0
    meta: dict = field(default_factory=dict)
    _context: ShiftContext = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def is_classification(self):
        return self.labels is not None

    def context(self):
        """The ShiftContext of S, built on first use and rebuilt only
        after S is replaced."""
        if self._context is None or self._context.S is not self.S:
            self._context = ShiftContext(self.S)
        return self._context

    def split_arrays(self, split):
        idx = self.splits[split]
        if self.is_classification:
            return self.X[idx], self.labels[idx], None
        return self.X[idx], self.targets[idx], self.target_mask[idx]


def dataset_hash(ds):
    """Hash of the shift operator and the sample set (splits excluded)."""
    h = hashlib.sha256()
    for arr, dt in ((ds.S.row_ptr, "<i8"), (ds.S.col_idx, "<i8"),
                    (ds.S.values, "<f8"), (ds.X, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dt).tobytes())
    if ds.labels is not None:
        h.update(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())
    if ds.targets is not None:
        h.update(np.ascontiguousarray(ds.targets, dtype="<f8").tobytes())
    return h.hexdigest()


def _contiguous_splits(n_train, n_val, n_test):
    return dict(zip(("train", "val", "test"), np.split(
        np.arange(n_train + n_val + n_test), [n_train, n_train + n_val])))


def gen_source_localization(cfg, rng):
    """Diffused-delta community classification on a fresh SBM draw.

    One maximum-degree source per community is fixed for the graph
    realization; each sample diffuses its delta for a uniform integer
    number of steps in [0, t_max].
    """
    ds_cfg = cfg.dataset
    sizes = ds_cfg["block_sizes"]
    n, n_blocks, t_max = sum(sizes), len(sizes), ds_cfg["t_max"]
    n_total = ds_cfg["n_train"] + ds_cfg["n_val"] + ds_cfg["n_test"]
    check_size("block_sizes", n * (n - 1) // 2)
    check_size("t_max", (t_max + 1) * n_blocks * n)
    check_size("n_train + n_val + n_test", n_total * n)
    graph = sbm_generate(sizes, ds_cfg["p_intra"], ds_cfg["p_inter"], rng)
    S = build_shift(graph, "max_eigenvalue")
    # nodes by block, then degree (highest first), then index: the first
    # of each contiguous block is its source
    order = np.lexsort((np.arange(n), -np.diff(S.row_ptr),
                        block_labels(sizes)))
    sources = order[np.cumsum(sizes) - sizes]
    # all diffusion states up front: table[t, c] = S^t delta_source(c)
    table = np.zeros((t_max + 1, n_blocks, n))
    table[0, np.arange(n_blocks), sources] = 1.0
    for t in range(1, t_max + 1):
        table[t] = spmv(S, table[t - 1])
    comm = rng.integers(0, n_blocks, size=n_total)
    steps = rng.integers(0, t_max + 1, size=n_total)
    X = table[steps, comm]
    splits = _contiguous_splits(ds_cfg["n_train"], ds_cfg["n_val"],
                                ds_cfg["n_test"])
    return Dataset(S=S, X=X, labels=comm.astype(np.int64), splits=splits,
                   n_outputs=n_blocks,
                   meta={"sources": sources.tolist(), "task": cfg.task})


def read_signals_csv(path, n_nodes):
    """One sample per line: n_nodes comma-separated finite values then a
    label, an integer in [0, 2**63). The class count, the largest label
    plus one, must not exceed the number of samples; a label that breaks
    this raises CountTooLarge naming its line, before any readout is
    sized by it."""
    X, labels, label_lines = [], [], []
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != n_nodes + 1:
            raise ParseError(
                lineno, f"expected {n_nodes + 1} fields, got {len(parts)}")
        X.append(finite_floats(lineno, parts[:-1]))
        try:
            label = int(parts[-1])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if not 0 <= label < 2**63:
            raise ParseError(lineno, f"label {label} outside [0, 2**63)")
        labels.append(label)
        label_lines.append(lineno)
    top = max(labels, default=-1)
    if top >= len(labels):
        i = labels.index(top)
        raise CountTooLarge(
            f"line {label_lines[i]}: label {labels[i]} makes {labels[i] + 1} "
            f"classes, more than the {len(labels)} samples")
    return (np.asarray(X, dtype=np.float64).reshape(len(X), n_nodes),
            np.asarray(labels, dtype=np.int64))


def ingest_edge_list(graph_path, signals_path, normalization="max_eigenvalue",
                     train_fraction=0.8, val_fraction=0.1):
    """Dataset from a user-supplied graph file and signal/label CSV; the
    signals are read first, so a line of another width fails before the
    shift of the graph's node count is built."""
    graph = load_graph(graph_path)
    X, labels = read_signals_csv(signals_path, graph.n)
    S = build_shift(graph, normalization)
    n = len(X)
    n_train = int(round(train_fraction * n))
    n_val = int(round(val_fraction * n))
    n_test = n - n_train - n_val
    if n_test < 0:
        raise ValueError("split fractions exceed the dataset")
    splits = _contiguous_splits(n_train, n_val, n_test)
    return Dataset(S=S, X=X, labels=labels, splits=splits,
                   n_outputs=int(labels.max()) + 1 if len(labels) else 0,
                   meta={"graph_path": str(graph_path)})


def export_dataset(ds, out_dir):
    """Edge list plus signals CSV, values written exactly (repr floats)."""
    os.makedirs(out_dir, exist_ok=True)
    rows, cols = ds.S.entry_rows(), ds.S.col_idx
    upper = rows < cols
    graph = Graph(ds.S.n_rows, np.stack(
        [rows[upper], cols[upper], ds.S.values[upper]], axis=1))
    graph_path = os.path.join(out_dir, "graph.edgelist")
    signals_path = os.path.join(out_dir, "signals.csv")
    write_edge_list(graph_path, graph)
    with open(signals_path, "w", encoding="utf-8") as fh:
        for x, y in zip(ds.X.tolist(), ds.labels.tolist()):
            fh.write(",".join(map(repr, x)) + f",{y}\n")
    return graph_path, signals_path


def pearson_similarity(a, b, min_co_rated=2):
    """Pearson correlation over co-observed (nonzero) entries.

    Returns None when fewer than min_co_rated entries are co-observed
    (an expected outcome on sparse ratings); raises DegenerateColumn when
    a side has zero variance on the co-observed set.
    """
    co = (a != 0) & (b != 0)
    if co.sum() < min_co_rated:
        return None
    x = a[co] - a[co].mean()
    y = b[co] - b[co].mean()
    vx = float(x @ x)
    vy = float(y @ y)
    if vx == 0.0 or vy == 0.0:
        raise DegenerateColumn("zero variance over co-rated entries")
    return float(x @ y) / np.sqrt(vx * vy)


def build_similarity_graph(ratings, top_k, min_co_rated=2):
    """Pearson-similarity graph over the rows of a ratings matrix.

    Keeps the top_k most similar neighbors per node, symmetrizes by the
    elementwise maximum, and scales by the dominant eigenvalue magnitude.
    Degenerate pairs (too few co-ratings, zero variance) are skipped.
    """
    ratings = np.asarray(ratings, dtype=np.float64)
    n = ratings.shape[0]
    sim = np.full((n, n), -np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                p = pearson_similarity(ratings[i], ratings[j], min_co_rated)
            except DegenerateColumn:
                continue
            if p is not None:
                sim[i, j] = sim[j, i] = p
    # per row, the top_k columns by (similarity desc, index); the pairs
    # skipped above hold -inf, so they sort last and are zeroed
    top = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), -sim))[:, :top_k]
    W = np.zeros((n, n))
    np.put_along_axis(W, top, np.take_along_axis(sim, top, axis=1), axis=1)
    W[np.isinf(W)] = 0.0
    W = np.maximum(W, W.T)
    S = SparseMatrix.from_dense(W)
    if S.nnz == 0:
        return S
    lam = power_iteration_lambda_max(S)
    return S.scale(1.0 / lam)


def read_ratings_csv(path):
    rows = []
    width = None
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ParseError(lineno, "ragged ratings row")
        rows.append(finite_floats(lineno, parts))
    return np.asarray(rows, dtype=np.float64)


def gen_ratings_regression(cfg, rng):
    """Rating prediction at one target node from everyone else's ratings.

    Each item column becomes a sample: the target node's entry is blanked
    in the input and becomes the (masked) regression target.
    """
    ds_cfg = cfg.dataset
    ratings = read_ratings_csv(ds_cfg["ratings_path"])
    target = int(ds_cfg["target_node"])
    if not 0 <= target < ratings.shape[0]:
        raise ValueError("target_node outside the ratings matrix")
    S = build_similarity_graph(ratings, ds_cfg["top_k"],
                               ds_cfg["min_co_rated"])
    X = ratings.T.copy()          # (n_items, n_nodes)
    targets = X[:, target].copy().reshape(-1, 1)
    mask = (targets != 0).astype(np.float64)
    X[:, target] = 0.0
    n = len(X)
    order = rng.permutation(n)
    n_train = int(round(ds_cfg["train_fraction"] * n))
    n_val = int(round(ds_cfg["val_fraction"] * n))
    splits = {
        "train": order[:n_train],
        "val": order[n_train:n_train + n_val],
        "test": order[n_train + n_val:],
    }
    return Dataset(S=S, X=X, targets=targets, target_mask=mask,
                   splits=splits, n_outputs=1,
                   meta={"target_node": target, "task": cfg.task})


def build_dataset(cfg, rng):
    if cfg.task == "sbm_source_localization":
        return gen_source_localization(cfg, rng)
    if cfg.task == "edge_list_classification":
        d = cfg.dataset
        return ingest_edge_list(d["graph_path"], d["signals_path"],
                                d["normalization"], d["train_fraction"],
                                d["val_fraction"])
    if cfg.task == "ratings_regression":
        return gen_ratings_regression(cfg, rng)
    raise ValueError(f"unknown task {cfg.task!r}")
