"""Graph representation, shift operators, random graphs, and centrality."""
from __future__ import annotations

import math

import numpy as np

from .errors import (CountTooLarge, GenerationFailed, ParseError,
                     SingularSystem, TooLarge)
from .sparse import SparseMatrix, power_iteration_lambda_max, spmv

SBM_MAX_RETRIES = 1000
MAX_ARRAY_BYTES = 2**30    # see check_size
SELECTIONS = ("degree", "diffusion_centrality")


class Graph:
    """Undirected weighted graph without self-loops, held as read-only
    edge arrays: ``src`` < ``dst`` in (src, dst) order, one entry per edge,
    and the ``weight`` it first had. ``edges`` are (src, dst[, w]) triples
    or an (E, 2|3) array, w = 1.0 when missing; the first self-loop or
    out-of-range index in input order raises ValueError."""

    def __init__(self, n, edges=()):
        self.n = int(n)
        arr = np.asarray(edges) if len(edges) else np.zeros((0, 2))
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise ValueError("edges must be (src, dst[, w]) triples or an "
                             f"(E, 2|3) array, not shape {arr.shape}")
        src, dst = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)
        w = (arr[:, 2].astype(np.float64) if arr.shape[1] == 3
             else np.ones(len(arr)))
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        bad = (lo == hi) | (lo < 0) | (hi >= self.n)
        if bad.any():
            i = np.argmax(bad)
            if lo[i] == hi[i]:
                raise ValueError(f"self-loop at node {src[i]} not allowed")
            raise ValueError(f"edge ({src[i]},{dst[i]}) out of range")
        order = np.lexsort((hi, lo))     # stable: a repeat follows its first
        lo, hi, w = lo[order], hi[order], w[order]
        first = np.ones(len(lo), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        self.src, self.dst, self.weight = lo[first], hi[first], w[first]
        for a in (self.src, self.dst, self.weight):
            a.flags.writeable = False

    @property
    def edges(self):
        """The (src, dst, weight) triples, as Python numbers."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(),
                         self.weight.tolist()))

    def adjacency(self):
        """Symmetric adjacency as a SparseMatrix."""
        return SparseMatrix.from_coo(
            self.n, self.n, np.concatenate([self.src, self.dst]),
            np.concatenate([self.dst, self.src]),
            np.concatenate([self.weight, self.weight]))

    @property
    def n_edges(self):
        return len(self.src)


def build_shift(graph, normalization="max_eigenvalue"):
    """Adjacency-based shift operator under the chosen scaling.

    normalization:
      none            raw adjacency
      max_eigenvalue  divide every weight by lambda_max(A)
      row_stochastic  divide each row by its sum (zero rows stay zero)
    """
    if graph.n < 1:
        raise ValueError("graph needs at least one node")
    A = graph.adjacency()
    if normalization == "none":
        return A
    if normalization == "max_eigenvalue":
        lam = power_iteration_lambda_max(A)
        if lam == 0.0:
            raise SingularSystem("max_eigenvalue normalization needs "
                                 "lambda_max(A) > 0, and this graph's is 0")
        return A.scale(1.0 / lam)
    if normalization == "row_stochastic":
        sums = spmv(A, np.ones(graph.n))
        scale = np.where(sums != 0.0, 1.0 / np.where(sums == 0, 1.0, sums), 0.0)
        rows = A.entry_rows()
        return A.with_values(A.values * scale[rows])
    raise ValueError(f"unknown normalization {normalization!r}")


def is_connected(graph):
    """Depth-first search from node 0, edges taken both ways."""
    if graph.n == 0:
        return True
    neigh = [[] for _ in range(graph.n)]
    for src, dst in zip(graph.src.tolist(), graph.dst.tolist()):
        neigh[src].append(dst)
        neigh[dst].append(src)
    seen = [True] + [False] * (graph.n - 1)
    stack = [0]
    while stack:
        for v in neigh[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def check_size(name, items):
    """TooLarge naming the field ``name`` when ``items`` 8-byte items pass
    MAX_ARRAY_BYTES, which admits N(N-1)/2 SBM pairs up to N = 16k."""
    if 8 * items > MAX_ARRAY_BYTES:
        raise TooLarge(f"field '{name}' sizes an array of {8 * items} "
                       f"bytes, past the {MAX_ARRAY_BYTES}-byte cap")


def sbm_generate(block_sizes, p_intra, p_inter, rng):
    """Stochastic block model, resampled until connected.

    Candidate pairs (i, j), i < j, are visited in lexicographic order so
    the result is a pure function of (block_sizes, probabilities, rng
    state). Raises GenerationFailed after SBM_MAX_RETRIES attempts.
    """
    if not (0.0 <= p_intra <= 1.0 and 0.0 <= p_inter <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if min(block_sizes, default=1) <= 0:
        raise ValueError("block sizes must be positive")
    n = int(sum(block_sizes))
    check_size("block_sizes", n * (n - 1) // 2)
    block_of = block_labels(block_sizes)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(block_of[iu] == block_of[ju], p_intra, p_inter)
    for _ in range(SBM_MAX_RETRIES):
        draw = rng.random(len(iu))
        keep = draw < prob
        g = Graph(n, np.stack([iu[keep], ju[keep]], axis=1))
        if is_connected(g):
            return g
    raise GenerationFailed(
        f"no connected draw in {SBM_MAX_RETRIES} attempts "
        f"(p_intra={p_intra}, p_inter={p_inter})")


def block_labels(block_sizes):
    """Node -> block id for contiguous blocks."""
    return np.repeat(np.arange(len(block_sizes)), block_sizes)


def diffusion_centrality(S, K):
    """delta = sum_{k=0..K} S^k 1, by K repeated shift applications."""
    if S.n_rows != S.n_cols:
        raise ValueError("diffusion centrality needs a square shift")
    if K < 0:
        raise ValueError(f"diffusion centrality needs K >= 0, not {K}")
    v = np.ones(S.n_rows)
    acc = v.copy()
    for _ in range(int(K)):
        v = spmv(S, v)
        acc += v
    return acc


def select_nodes(S, strategy, count, k_dc=3):
    """Top-`count` nodes by the score ``strategy`` names (one of
    SELECTIONS), ties to the lower index."""
    n = S.n_rows
    count = int(count)
    if count > n:
        raise CountTooLarge(f"cannot select {count} of {n} nodes")
    if strategy == "degree":
        score = np.diff(S.row_ptr).astype(np.float64)
    elif strategy == "diffusion_centrality":
        score = diffusion_centrality(S, k_dc)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    order = np.lexsort((np.arange(n), -score))
    return np.sort(order[:count])


def text_lines(path):
    """(1-based number, text) of each line of a UTF-8 text file; a line
    holding bytes that are not UTF-8 raises ParseError naming it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(lineno, "not UTF-8 text") from None
            yield lineno, line


def finite_floats(lineno, fields):
    """The numbers the text ``fields`` of line ``lineno`` spell; a field
    that is not a number, or is NaN or infinite, raises ParseError."""
    try:
        values = [float(p) for p in fields]
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    for text, v in zip(fields, values):
        if not math.isfinite(v):
            raise ParseError(lineno, f"{text.strip()!r} is not a finite number")
    return values


def read_edge_list(path):
    """Parse the text edge-list format: ``src dst [weight]`` per line,
    0-based indices, '#' comments and blank lines ignored.

    The node count is the largest index plus one. An index at or above
    twice the number of distinct nodes the file names raises
    CountTooLarge naming its line, before anything of that size exists.
    """
    edges, nodes = [], set()
    max_node, max_line = -1, 0
    for lineno, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(lineno, f"expected 2 or 3 fields, got {len(parts)}")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        w = finite_floats(lineno, parts[2:])[0] if len(parts) == 3 else 1.0
        if src < 0 or dst < 0:
            raise ParseError(lineno, "negative node index")
        if src == dst:
            raise ParseError(lineno, "self-loop not allowed")
        edges.append((src, dst, w))
        nodes.update((src, dst))
        if max(src, dst) > max_node:
            max_node, max_line = max(src, dst), lineno
    if max_node >= 2 * len(nodes):
        raise CountTooLarge(
            f"line {max_line}: node index {max_node} is at or above twice "
            f"the {len(nodes)} distinct nodes the file names")
    return edges, max_node + 1


def load_graph(path):
    edges, n = read_edge_list(path)
    return Graph(n, edges)


def write_edge_list(path, graph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {graph.n} nodes, {graph.n_edges} edges\n")
        fh.writelines(f"{src} {dst} {w!r}\n" for src, dst, w in graph.edges)
