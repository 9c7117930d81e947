"""Graph type, shift construction, SBM, centrality, selection, file IO."""
import numpy as np
import pytest

from graphfilt import graphs
from graphfilt.errors import (CountTooLarge, GenerationFailed, ParseError,
                              SingularSystem, TooLarge)
from graphfilt.graphs import (MAX_ARRAY_BYTES, Graph, build_shift,
                              check_size, diffusion_centrality, is_connected,
                              load_graph, read_edge_list, sbm_generate,
                              select_nodes, write_edge_list)
from graphfilt.sparse import SparseMatrix


def k3():
    return Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))


def path(n):
    return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def star(leaves):
    return Graph(leaves + 1, tuple((0, i + 1, 1.0) for i in range(leaves)))


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0, 1.0),))

    def test_undirected_canonicalizes(self):
        g = Graph(3, ((2, 0, 1.0), (0, 2, 1.0), (1, 0, 1.0)))
        assert g.n_edges == 2
        A = g.adjacency().to_dense()
        assert np.array_equal(A, A.T)


def reference_canonical_edges(n, edges):
    """The per-edge canonicalisation Graph ran before it held arrays: the
    first occurrence of each unordered pair, with its weight, sorted."""
    canon = []
    seen = set()
    for e in edges:
        src, dst = int(e[0]), int(e[1])
        w = float(e[2]) if len(e) > 2 else 1.0
        if src == dst:
            raise ValueError(f"self-loop at node {src} not allowed")
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src},{dst}) out of range")
        if src > dst:
            src, dst = dst, src
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        canon.append((src, dst, w))
    return tuple(sorted(canon))


def random_edge_list(rng, n, count):
    """``count`` (src, dst, w) triples on n nodes: repeats in both
    orientations, mixed weights, no self-loop."""
    src = rng.integers(0, n, size=count)
    dst = (src + rng.integers(1, n, size=count)) % n
    w = rng.choice([1.0, 0.5, -2.25, 0.0, 3.0], size=count)
    return [(int(a), int(b), float(c)) for a, b, c in zip(src, dst, w)]


class TestEdgeArrays:
    @pytest.mark.parametrize("seed", range(12))
    def test_edges_equal_the_per_edge_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        edges = random_edge_list(rng, n, int(rng.integers(0, 3 * n)))
        want = reference_canonical_edges(n, edges)
        assert Graph(n, edges).edges == want
        assert Graph(n, tuple(edges)).edges == want
        assert Graph(n, np.array(edges).reshape(-1, 3)).edges == want

    def test_arrays_are_canonical_and_read_only(self):
        g = Graph(4, ((3, 1, 2.0), (0, 2, 1.0), (1, 3, 5.0), (1, 0, 0.5)))
        assert np.array_equal(g.src, [0, 0, 1])
        assert np.array_equal(g.dst, [1, 2, 3])
        assert np.array_equal(g.weight, [0.5, 1.0, 2.0])
        assert g.src.dtype == np.int64 and g.weight.dtype == np.float64
        with pytest.raises(ValueError):
            g.src[0] = 1

    @pytest.mark.parametrize("seed", range(12))
    def test_first_bad_edge_error_equals_the_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 10))
        edges = random_edge_list(rng, n, 12)
        for _ in range(2):
            i = int(rng.integers(0, len(edges)))
            a = int(rng.integers(0, n))
            edges[i] = [(a, a, 1.0), (a, n + int(rng.integers(0, 3)), 1.0),
                        (-1, a, 1.0), (n, n, 1.0)][int(rng.integers(0, 4))]
        with pytest.raises(ValueError) as want:
            reference_canonical_edges(n, edges)
        with pytest.raises(ValueError) as got:
            Graph(n, edges)
        assert str(got.value) == str(want.value)

    def test_two_columns_get_unit_weight(self):
        pairs = [(0, 1), (2, 1), (1, 0)]
        g = Graph(3, np.array(pairs))
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))
        assert Graph(3, pairs).edges == g.edges

    def test_three_by_two_array_is_three_pairs(self):
        # not reshaped to two weighted edges
        g = Graph(4, np.array([[0, 1], [1, 2], [2, 3]]))
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))

    @pytest.mark.parametrize("shape", [(6,), (3, 4), (2, 3, 1), (3, 1)])
    def test_other_shapes_raise(self, shape):
        arr = np.arange(np.prod(shape)).reshape(shape) % 3
        with pytest.raises(ValueError, match="shape"):
            Graph(8, arr)

    def test_no_edges(self):
        for edges in ((), [], np.zeros((0, 3))):
            g = Graph(3, edges)
            assert g.n_edges == 0 and g.edges == ()
            assert g.adjacency().nnz == 0


class TestBuildShift:
    def test_none_is_raw_adjacency(self):
        A = build_shift(k3(), "none").to_dense()
        assert np.array_equal(A, np.ones((3, 3)) - np.eye(3))

    def test_k3_max_eigenvalue_halves(self):
        # dense eigendecomposition oracle: lambda_max(K3) = 2
        lam = np.max(np.linalg.eigvalsh(build_shift(k3(), "none").to_dense()))
        assert lam == pytest.approx(2.0, abs=1e-12)
        S = build_shift(k3(), "max_eigenvalue")
        off = S.to_dense()[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-8)

    def test_p3_max_eigenvalue(self):
        # oracle: lambda_max of the 3-path is sqrt(2)
        S = build_shift(path(3), "max_eigenvalue")
        nz = S.values
        assert np.allclose(nz, 1 / np.sqrt(2), atol=1e-8)

    def test_row_stochastic(self):
        S = build_shift(star(3), "row_stochastic")
        sums = S.to_dense().sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_row_stochastic_zero_row(self):
        g = Graph(3, ((0, 1, 1.0),))
        S = build_shift(g, "row_stochastic")
        assert np.array_equal(S.to_dense()[2], np.zeros(3))

    @pytest.mark.parametrize("edges", [((0, 1, 0.0),), ()])
    def test_max_eigenvalue_of_zero_is_typed(self, edges):
        # lambda_max(A) = 0 for an all-zero weight and for no edge at all
        with pytest.raises(SingularSystem, match="lambda_max"):
            build_shift(Graph(2, edges), "max_eigenvalue")


class TestConnectivity:
    def test_k3_connected(self):
        assert is_connected(k3())

    def test_two_isolated_nodes(self):
        assert not is_connected(Graph(2, ()))

    def test_long_path(self):
        assert is_connected(path(50))

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_dense_reachability(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.2])
        reach = np.eye(n, dtype=bool) | (g.adjacency().to_dense() != 0)
        for _ in range(n):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        assert is_connected(g) == bool(reach[0].all())

    def test_relabelled_long_path(self):
        perm = np.random.default_rng(0).permutation(2000)
        g = Graph(2000, np.stack([perm[:-1], perm[1:]], axis=1))
        assert is_connected(g)
        assert not is_connected(Graph(2000, g.edges[:1000] + g.edges[1001:]))


class TestSbm:
    def test_single_block_full_probability_is_complete(self):
        rng = np.random.default_rng(0)
        g = sbm_generate([4], 1.0, 0.0, rng)
        assert g.n_edges == 6

    def test_zero_probabilities_fail(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GenerationFailed):
            sbm_generate([2, 2], 0.0, 0.0, rng)

    def test_seeded_determinism(self):
        g1 = sbm_generate([10] * 5, 0.8, 0.2, np.random.default_rng(7))
        g2 = sbm_generate([10] * 5, 0.8, 0.2, np.random.default_rng(7))
        assert g1.edges == g2.edges

    def test_generated_graph_is_connected(self):
        g = sbm_generate([10] * 5, 0.8, 0.2, np.random.default_rng(3))
        assert is_connected(g)


class TestSizeCap:
    def test_cap_admits_the_10k_node_sbm(self):
        check_size("block_sizes", 10_000 * 9_999 // 2)

    def test_cap_is_inclusive(self):
        check_size("t_max", MAX_ARRAY_BYTES // 8)
        with pytest.raises(TooLarge):
            check_size("t_max", MAX_ARRAY_BYTES // 8 + 1)

    def test_huge_blocks_raise_before_the_pairs_exist(self, monkeypatch):
        def no_pairs(*args, **kwargs):
            raise AssertionError("the pair indices were built")
        monkeypatch.setattr(graphs.np, "triu_indices", no_pairs)
        with pytest.raises(TooLarge, match="^field 'block_sizes' sizes an "
                                           "array of .* bytes, past the"):
            sbm_generate([10**6, 10**6], 0.5, 0.1, np.random.default_rng(0))


class TestDiffusionCentrality:
    def test_k_zero_is_ones(self):
        S = build_shift(k3(), "none")
        assert np.array_equal(diffusion_centrality(S, 0), np.ones(3))

    def test_k3_one_step(self):
        # dense oracle: (I + A) 1 = [3, 3, 3]
        S = build_shift(k3(), "none")
        assert np.array_equal(diffusion_centrality(S, 1), [3.0, 3.0, 3.0])

    def test_star_one_step(self):
        S = build_shift(star(3), "none")
        assert np.array_equal(diffusion_centrality(S, 1), [4.0, 2.0, 2.0, 2.0])

    def test_relabel_equivariance(self):
        from graphfilt.sparse import Permutation, permute_shift, permute_signal
        rng = np.random.default_rng(5)
        g = sbm_generate([5, 5], 0.9, 0.3, rng)
        S = build_shift(g, "none")
        P = Permutation.random(10, rng)
        lhs = diffusion_centrality(permute_shift(S, P), 3)
        rhs = permute_signal(diffusion_centrality(S, 3), P)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSelectNodes:
    def test_star_degree_center(self):
        S = build_shift(star(3), "none")
        assert np.array_equal(select_nodes(S, "degree", 1), [0])

    def test_k3_tie_break(self):
        S = build_shift(k3(), "none")
        assert np.array_equal(select_nodes(S, "degree", 2), [0, 1])

    def test_count_too_large(self):
        with pytest.raises(CountTooLarge):
            select_nodes(build_shift(k3(), "none"), "degree", 4)

    def test_centrality_matches_dense_scoring(self):
        rng = np.random.default_rng(9)
        g = sbm_generate([10] * 5, 0.8, 0.2, rng)
        S = build_shift(g, "none")
        sel = select_nodes(S, "diffusion_centrality", 5, k_dc=3)
        dense = S.to_dense()
        score = np.ones(50)
        acc = np.ones(50)
        for _ in range(3):
            score = dense @ score
            acc = acc + score
        order = np.lexsort((np.arange(50), -acc))
        assert np.array_equal(sel, np.sort(order[:5]))


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = Graph(4, ((0, 1, 1.5), (2, 3, 0.25), (1, 2, 1.0)))
        p = tmp_path / "g.edgelist"
        write_edge_list(p, g)
        g2 = load_graph(p)
        assert g2.n == 4 and g2.edges == g.edges

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# header\n\n0 1\n1 2 0.5  # tail comment\n")
        edges, n = read_edge_list(p)
        assert n == 3
        assert edges == [(0, 1, 1.0), (1, 2, 0.5)]

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n0 1 2 3\n")
        with pytest.raises(ParseError) as err:
            read_edge_list(p)
        assert err.value.line == 2

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 x\n")
        with pytest.raises(ParseError):
            read_edge_list(p)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_weight_names_its_line(self, tmp_path, weight):
        p = tmp_path / "bad.txt"
        p.write_text(f"0 1\n1 2 {weight}\n")
        with pytest.raises(ParseError, match="^line 2: .* finite") as err:
            read_edge_list(p)
        assert err.value.line == 2

    def test_bytes_not_utf8_name_their_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"0 1\n# caf\xe9\n1 2\n")
        with pytest.raises(ParseError, match="^line 2: not UTF-8") as err:
            read_edge_list(p)
        assert err.value.line == 2

    def test_utf8_comment_and_crlf_lines_read(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes("# café\r\n0 1\r\n1 2 0.5\r\n".encode("utf-8"))
        assert read_edge_list(p) == ([(0, 1, 1.0), (1, 2, 0.5)], 3)

    @pytest.mark.parametrize("content,line", [
        ("0 1\n1 4000000\n", 2),
        ("0 1\n1 10000000000\n0 2\n", 2),
        ("0 4\n", 1),                       # 2 distinct nodes, index 4
        ("0 1\n2 3\n0 10\n", 3),          # 5 distinct nodes, index 10
    ])
    def test_index_far_past_the_distinct_nodes_names_its_line(
            self, tmp_path, content, line):
        p = tmp_path / "stray.txt"
        p.write_text(content)
        with pytest.raises(CountTooLarge, match=f"^line {line}: node index"):
            read_edge_list(p)

    @pytest.mark.parametrize("content,n", [
        ("0 3\n", 4),                       # 2 distinct nodes, index 3
        ("0 1\n2 3\n0 8\n", 9),           # 5 distinct nodes, index 8
        ("2 3\n3 4\n", 5),                 # 3 distinct nodes, index 4
        ("", 0),
    ])
    def test_index_below_twice_the_distinct_nodes_reads(self, tmp_path,
                                                         content, n):
        p = tmp_path / "g.txt"
        p.write_text(content)
        assert read_edge_list(p)[1] == n

    def test_stray_index_fails_before_the_shift_is_allocated(
            self, tmp_path, monkeypatch):
        p = tmp_path / "stray.txt"
        p.write_text("0 1\n1 10000000000\n")

        def no_matrix(*args):
            raise AssertionError("a matrix was built for the stray index")
        monkeypatch.setattr(SparseMatrix, "from_coo", no_matrix)
        with pytest.raises(CountTooLarge, match="^line 2: "):
            build_shift(load_graph(p), "none")


def _edge_list(tmp_path, text):
    path = tmp_path / "g.edgelist"
    path.write_text(text)
    return path


# the input checks no other test reaches: (call on a scratch directory,
# error type, message)
RAISE_SITES = {
    "build_shift_no_nodes": (
        lambda tmp: build_shift(Graph(0), "none"), ValueError,
        "graph needs at least one node"),
    "build_shift_unknown_normalization": (
        lambda tmp: build_shift(k3(), "unit"), ValueError,
        "unknown normalization 'unit'"),
    "sbm_probability_above_one": (
        lambda tmp: sbm_generate([2, 2], 1.5, 0.1,
                                 np.random.default_rng(0)),
        ValueError, "probabilities must lie in [0, 1]"),
    "sbm_negative_probability": (
        lambda tmp: sbm_generate([2, 2], 0.5, -0.1,
                                 np.random.default_rng(0)),
        ValueError, "probabilities must lie in [0, 1]"),
    "sbm_empty_block": (
        lambda tmp: sbm_generate([2, 0], 0.5, 0.1, np.random.default_rng(0)),
        ValueError, "block sizes must be positive"),
    "diffusion_centrality_not_square": (
        lambda tmp: diffusion_centrality(
            SparseMatrix.from_dense(np.ones((2, 3))), 2),
        ValueError, "diffusion centrality needs a square shift"),
    "diffusion_centrality_negative_k": (
        lambda tmp: diffusion_centrality(build_shift(k3(), "none"), -1),
        ValueError, "diffusion centrality needs K >= 0, not -1"),
    "select_nodes_unknown_strategy": (
        lambda tmp: select_nodes(build_shift(k3(), "none"), "random", 1),
        ValueError, "unknown strategy 'random'"),
    "edge_list_negative_index": (
        lambda tmp: read_edge_list(_edge_list(tmp, "0 1\n-1 2\n")),
        ParseError, "line 2: negative node index"),
    "edge_list_self_loop": (
        lambda tmp: read_edge_list(_edge_list(tmp, "0 1\n# loop\n2 2 0.5\n")),
        ParseError, "line 3: self-loop not allowed"),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_input_check_raises_its_type_and_message(site, tmp_path):
    call, error, message = RAISE_SITES[site]
    with pytest.raises(error) as err:
        call(tmp_path)
    assert type(err.value) is error and str(err.value) == message
