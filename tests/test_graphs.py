"""Graph type, shift construction, SBM, centrality, selection, file IO."""
import numpy as np
import pytest

from graphfilt.errors import (CountTooLarge, GenerationFailed, ParseError,
                              SingularSystem)
from graphfilt.graphs import (Graph, build_shift, diffusion_centrality,
                              is_connected, load_graph, read_edge_list,
                              sbm_generate, select_nodes, write_edge_list)
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
