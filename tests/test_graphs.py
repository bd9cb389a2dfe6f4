import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtvsampling import (
    Graph,
    cartesian_laplacian,
    cycle_graph,
    laplacian,
    path_graph,
    star_graph,
)
from jtvsampling.generate import random_connected_graph


def random_graph_strategy(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    w = draw(st.floats(min_value=0.1, max_value=5.0))
                    edges.append((i, j, w))
        return Graph(n, tuple(edges))

    return build()


class TestGraphValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            Graph(2, ((0, 1, -1.0),))

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_non_finite_weight_rejected(self, w):
        # both pass a plain w <= 0 test
        with pytest.raises(ValueError, match="non-finite"):
            Graph(2, ((0, 1, w),))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 0, 1.0),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2, 1.0),))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    @pytest.mark.parametrize("n, edges", [
        (3.9, ((0, 1, 1.0),)),
        (3, ((0, 1.5, 1.0),)),
        (3, ((0.2, 2, 1.0),)),
        ("3", ()),
        (float("nan"), ()),
    ])
    def test_non_integral_rejected(self, n, edges):
        # int() would truncate an endpoint, and n = 3.9 passes a plain n < 1 test
        with pytest.raises(ValueError, match="must be an integer"):
            Graph(n, edges)

    def test_integral_floats_and_numpy_ints_normalized(self):
        g = Graph(3.0, ((np.int64(0), 1.0, 2.0), (2, np.int32(1), 1.0)))
        assert g == Graph(3, ((0, 1, 2.0), (2, 1, 1.0)))
        assert type(g.n) is int
        assert np.array_equal(laplacian(g), laplacian(Graph(3, g.edges)))


class TestLaplacian:
    def test_star_matches_reference(self, ref):
        assert np.array_equal(laplacian(star_graph(4, center=1)), ref.l_graph)

    def test_single_vertex(self):
        assert np.array_equal(laplacian(Graph(1, ())), np.zeros((1, 1)))

    def test_weighted_path_of_two(self):
        g = Graph(2, ((0, 1, 3.0),))
        assert np.array_equal(laplacian(g), np.array([[3.0, -3.0], [-3.0, 3.0]]))

    @settings(max_examples=50, deadline=None)
    @given(random_graph_strategy())
    def test_laplacian_invariants(self, g):
        lap = laplacian(g)
        assert np.allclose(lap, lap.T, atol=1e-12)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        off = lap - np.diag(np.diag(lap))
        assert np.all(off <= 1e-12)
        assert np.min(np.linalg.eigvalsh(lap)) >= -1e-10


class TestCycleGraph:
    def test_cycle4_matches_reference(self, ref):
        assert np.array_equal(laplacian(cycle_graph(4)), ref.l_time)

    def test_triangle_degrees(self):
        lap = laplacian(cycle_graph(3))
        assert np.array_equal(np.diag(lap), [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_too_small_rejected(self, t):
        with pytest.raises(ValueError, match="at least 3"):
            cycle_graph(t)


class TestRandomConnectedGraph:
    def test_vertex_count_must_be_positive(self):
        with pytest.raises(ValueError, match="vertex count must be positive"):
            random_connected_graph(0, np.random.default_rng(0))

    def test_gives_up_when_never_connected(self):
        with pytest.raises(RuntimeError, match="no connected graph"):
            random_connected_graph(3, np.random.default_rng(0), p=0.0)


class TestPathStar:
    def test_path_graph(self):
        lap = laplacian(path_graph(3))
        assert np.array_equal(
            lap, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        )

    def test_star_center_out_of_range(self):
        with pytest.raises(ValueError, match="center"):
            star_graph(4, center=4)


class TestCartesianLaplacian:
    def test_two_by_two_by_hand(self):
        l2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
        lj = cartesian_laplacian(l2, l2)
        expected = np.kron(l2, np.eye(2)) + np.kron(np.eye(2), l2)
        assert np.array_equal(lj, expected)
        assert np.array_equal(np.diag(lj), [2.0, 2.0, 2.0, 2.0])

    def test_trivial_factor(self, ref):
        assert np.array_equal(cartesian_laplacian(ref.l_time, np.zeros((1, 1))), ref.l_time)

    def test_reference_eigenvalue_additivity(self, ref):
        lj = cartesian_laplacian(ref.l_time, ref.l_graph)
        lam_t = np.linalg.eigvalsh(ref.l_time)
        lam_g = np.linalg.eigvalsh(ref.l_graph)
        sums = np.sort(np.add.outer(lam_t, lam_g).ravel())
        assert np.allclose(np.sort(np.linalg.eigvalsh(lj)), sums, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(random_graph_strategy(max_n=4), random_graph_strategy(max_n=4))
    def test_random_additivity_and_symmetry(self, g1, g2):
        l1, l2 = laplacian(g1), laplacian(g2)
        lj = cartesian_laplacian(l1, l2)
        assert np.allclose(lj, lj.T, atol=1e-12)
        assert np.allclose(lj.sum(axis=1), 0.0, atol=1e-10)
        sums = np.sort(np.add.outer(np.linalg.eigvalsh(l1), np.linalg.eigvalsh(l2)).ravel())
        assert np.allclose(np.sort(np.linalg.eigvalsh(lj)), sums, atol=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            cartesian_laplacian(np.zeros((2, 3)), np.zeros((2, 2)))
