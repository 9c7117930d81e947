"""Hypothesis property of the three input readers: for any file content,
text or bytes, `read_edge_list`, `read_signals_csv` and `read_ratings_csv`
either return finite values or raise a GraphFiltError subclass. Sizes read
from a file stay bounded by what the file holds: an edge list's node count
stays within twice its distinct nodes, and a signals file's class count
stays within its samples."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfilt.errors import CountTooLarge, GraphFiltError  # noqa: E402
from graphfilt.graphs import read_edge_list  # noqa: E402
from graphfilt.harness.data import (read_ratings_csv,  # noqa: E402
                                    read_signals_csv)

TOKENS = ["0", "1", "2", "-1", "0.5", "1e3", "1_0", "nan", "inf", "-inf",
          "1e400", "1" + "0" * 23, "1" + "0" * 12, "4000000", "x", "", " ",
          "#", "٣", "café"]

lines = st.tuples(st.lists(st.sampled_from(TOKENS), max_size=5),
                  st.sampled_from([",", " "])).map(lambda p: p[1].join(p[0]))
texts = st.tuples(st.lists(lines, max_size=6),
                  st.sampled_from(["\n", "\r\n", "\r"])).map(
    lambda p: p[1].join(p[0]))
contents = st.one_of(
    texts.map(lambda t: t.encode("utf-8")),
    st.tuples(texts, st.binary(min_size=1, max_size=3), texts).map(
        lambda p: p[0].encode("utf-8") + p[1] + p[2].encode("utf-8")),
    st.text(max_size=40).map(lambda t: t.encode("utf-8")),
    st.binary(max_size=40))


def _check_edges(result):
    edges, n = result
    assert all(0 <= s < n and 0 <= d < n and s != d and np.isfinite(w)
               for s, d, w in edges)
    assert n <= 2 * len({i for e in edges for i in e[:2]})


def _check_signals(result):
    X, labels = result
    assert X.shape == (len(labels), 2) and np.all(np.isfinite(X))
    assert labels.dtype == np.int64 and np.all(labels >= 0)
    assert np.all(labels < len(labels))


def _check_ratings(result):
    assert result.dtype == np.float64 and np.all(np.isfinite(result))


READERS = {
    "edge_list": (read_edge_list, _check_edges),
    "signals": (lambda path: read_signals_csv(path, 2), _check_signals),
    "ratings": (read_ratings_csv, _check_ratings),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(READERS)), contents)
def test_reader_returns_finite_values_or_raises_graphfilt_error(
        tmp_path_factory, reader, content):
    path = tmp_path_factory.getbasetemp() / "reader_input"
    path.write_bytes(content)
    read, check = READERS[reader]
    try:
        result = read(path)
    except GraphFiltError:
        return
    check(result)


sizes = st.one_of(st.integers(0, 12), st.integers(0, 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(sizes, sizes), max_size=8))
def test_well_formed_files_keep_their_sizes_bounded(tmp_path_factory, rows):
    """Well-formed edge lists and signals files whose indices and labels
    reach 2**63 - 1: each reads with bounded sizes or raises CountTooLarge."""
    base = tmp_path_factory.getbasetemp()
    edges, signals = base / "edges", base / "signals"
    edges.write_text("".join(f"{a} {a + b + 1}\n" for a, b in rows
                             if a + b + 1 < 2**63))
    signals.write_text("".join(f"0.5,-1,{y}\n" for _, y in rows))
    for path, read, check in ((edges, read_edge_list, _check_edges),
                              (signals, READERS["signals"][0],
                               _check_signals)):
        try:
            result = read(path)
        except CountTooLarge:
            continue
        check(result)
