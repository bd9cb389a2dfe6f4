import numpy as np
import pytest

import families
from jtvsampling import (
    SpectralSupport,
    cycle_graph,
    detect_support,
    eig_sym,
    jft,
    laplacian,
    restrict_bases,
    synth_from_restricted,
    synth_signal,
)
from jtvsampling.generate import random_coeffs, random_support


class TestSpectralSupport:
    def test_reference_counts(self, ref):
        assert ref.support.k == 3
        assert ref.support.k_t == 2
        assert ref.support.k_g == 2
        assert ref.support.time_freqs == (1, 2)
        assert ref.support.graph_freqs == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SpectralSupport(t_dim=2, g_dim=2, pairs=frozenset())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SpectralSupport(t_dim=2, g_dim=2, pairs=frozenset({(2, 0)}))

    @pytest.mark.parametrize("dims", [(0, 2), (2, 0), (-1, 3)])
    def test_non_positive_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            SpectralSupport(t_dim=dims[0], g_dim=dims[1], pairs=frozenset({(0, 0)}))

    @pytest.mark.parametrize("pairs, repeat", [
        ([[1, 2], [0, 3], [1, 2]], (1, 2)),
        ([(1, 2), (1.0, np.int64(2))], (1, 2)),
        ([(0, 0), (3, 3), (0, 0), (3, 3)], (0, 0)),
    ])
    def test_repeated_pair_rejected(self, pairs, repeat):
        # a repeated pair used to be merged into one: K = 2, not 3, for the first
        with pytest.raises(ValueError) as exc:
            SpectralSupport(t_dim=4, g_dim=4, pairs=pairs)
        assert str(exc.value) == f"pair {repeat} is given twice"

    @pytest.mark.parametrize("dims, pairs", [
        ((4, 4), {(0.9, 1.5)}),
        ((4, 4), {(1, 2.5)}),
        ((4.5, 4), {(0, 0)}),
        ((4, 4), {(1, "2")}),
        ((4, 4), {(float("nan"), 0)}),
        ((True, 4), {(0, 0)}),
        ((4, 4), {(0, True)}),
        (("4", 4), {(0, 0)}),
        ((None, 4), {(0, 0)}),
        ((4, "4"), {(0, 0)}),
    ])
    def test_non_integral_rejected(self, dims, pairs):
        # int() would truncate these: (0.9, 1.5) to the pair (0, 1)
        with pytest.raises(ValueError, match="must be an integer"):
            SpectralSupport(t_dim=dims[0], g_dim=dims[1], pairs=frozenset(pairs))

    def test_integral_floats_and_numpy_ints_normalized(self):
        s = SpectralSupport(t_dim=4.0, g_dim=np.int64(3),
                            pairs=frozenset({(np.int32(1), 2.0), (0, np.float64(0))}))
        assert s == SpectralSupport(t_dim=4, g_dim=3, pairs=frozenset({(1, 2), (0, 0)}))
        assert {type(x) for x in (s.t_dim, s.g_dim, *sum(s.sorted_pairs, ()))} == {int}

    def test_bandwidth_inequality_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = random_support(6, 5, rng)
            assert max(s.k_t, s.k_g) <= s.k <= s.k_t * s.k_g
            # projection floors lie between the row-counting bounds and K_T, K_G
            assert -(-s.k // s.k_g) <= s.floor_t <= s.k_t
            assert -(-s.k // s.k_t) <= s.floor_g <= s.k_g
            # SBL implies strictly bandlimited overall
            assert not s.is_sbl() or s.k < s.t_dim * s.g_dim

    @pytest.mark.parametrize("dims, kwargs, match", [
        ((1, 5), {}, "too small for an SBL support"),
        ((5, 1), {}, "too small for an SBL support"),
        ((5, 5), {"k_t": 5}, "bandwidths"),
        ((5, 5), {"k_g": 0}, "bandwidths"),
        ((5, 5), {"k_t": 2, "k_g": 3, "k": 2}, "outside"),
        ((5, 5), {"k_t": 2, "k_g": 3, "k": 7}, "outside"),
    ])
    def test_random_support_argument_errors(self, dims, kwargs, match):
        with pytest.raises(ValueError, match=match):
            random_support(*dims, np.random.default_rng(0), **kwargs)

    def test_inequality_witnesses(self):
        # single occupied graph frequency: K hits the lower bound
        low = SpectralSupport(t_dim=4, g_dim=4, pairs=frozenset({(0, 0), (1, 0), (2, 0)}))
        assert low.k == max(low.k_t, low.k_g) == 3
        # full rectangle: K hits the upper bound
        high = SpectralSupport(
            t_dim=4, g_dim=4,
            pairs=frozenset((jt, jg) for jt in (0, 1) for jg in (1, 3)),
        )
        assert high.k == high.k_t * high.k_g == 4

    def test_projection_floors_skewed_support(self):
        # graph frequency 0 carries three time frequencies: floor_t = 3 beats
        # the row-counting bound ceil(K/K_G) = 2
        s = SpectralSupport(
            t_dim=4, g_dim=4, pairs=frozenset({(0, 0), (0, 1), (1, 0), (2, 0)})
        )
        assert (s.k, s.k_t, s.k_g) == (4, 3, 2)
        assert s.floor_t == 3 > -(-s.k // s.k_g) == 2
        assert s.floor_g == 2

    def test_projection_floors_rectangle(self):
        s = SpectralSupport(
            t_dim=5, g_dim=4,
            pairs=frozenset((jt, jg) for jt in (0, 2, 4) for jg in (1, 3)),
        )
        assert s.k == s.k_t * s.k_g
        assert (s.floor_t, s.floor_g) == (s.k_t, s.k_g) == (3, 2)


class TestDetectSupport:
    def test_reference_spectrum(self, ref):
        xf = np.zeros((ref.support.g_dim, ref.support.t_dim))
        for (jt, jg), val in ref.coeffs.items():
            xf[jg, jt] = val
        s = detect_support(xf)
        assert s == ref.support
        assert (s.k, s.k_t, s.k_g) == (3, 2, 2)
        assert s.is_sbl()

    def test_full_diagonal_not_sbl(self):
        s = detect_support(np.diag([1.0, -2.0, 0.5, 3.0]))
        assert (s.k, s.k_t, s.k_g) == (4, 4, 4)
        assert not s.is_sbl()

    def test_single_entry(self):
        xf = np.zeros((3, 4))
        xf[2, 1] = 0.7
        s = detect_support(xf)
        assert s.pairs == {(1, 2)}
        assert (s.k, s.k_t, s.k_g) == (1, 1, 1)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError, match="zero signal"):
            detect_support(np.zeros((3, 3)))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            detect_support(np.eye(2), eps=0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        # NaN and inf keep no pair, so without the check both fail later as
        # an empty support
        with pytest.raises(ValueError, match="eps must be finite"):
            detect_support(np.eye(2), eps=eps)

    def test_threshold_is_relative(self):
        xf = np.array([[1.0, 0.0], [0.0, 1e-12]])
        assert detect_support(1e9 * xf).pairs == detect_support(xf).pairs


class TestRestrictBases:
    def test_full_support_is_identity_restriction(self):
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(np.eye(2))
        support = SpectralSupport(
            t_dim=3, g_dim=2,
            pairs=frozenset((jt, jg) for jt in range(3) for jg in range(2)),
        )
        ut_r, ug_r = restrict_bases(bt, bg, support)
        assert np.array_equal(ut_r, bt.vectors)
        assert np.array_equal(ug_r, bg.vectors)

    def test_single_pair(self):
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(np.eye(2))
        support = SpectralSupport(t_dim=3, g_dim=2, pairs=frozenset({(1, 0)}))
        ut_r, ug_r = restrict_bases(bt, bg, support)
        assert ut_r.shape == (3, 1) and ug_r.shape == (2, 1)

    def test_dim_mismatch(self, ref):
        bt = eig_sym(np.eye(3))
        bg = eig_sym(np.eye(4))
        with pytest.raises(ValueError, match="dimensions"):
            restrict_bases(bt, bg, ref.support)


class TestSynth:
    def test_reference_signal(self, ref):
        x = synth_from_restricted(ref.ut_r, ref.ug_r, ref.support, ref.coeffs)
        assert np.max(np.abs(x - ref.x)) < 1e-3

    def test_single_pair_outer_product(self):
        bt, bg = families.basis_pair(4, 3, np.random.default_rng(1))
        support = SpectralSupport(t_dim=4, g_dim=3, pairs=frozenset({(2, 1)}))
        x = synth_signal(bt, bg, support, {(2, 1): 1.0})
        outer = np.outer(bg.vectors[:, 1], bt.vectors[:, 2])
        assert np.max(np.abs(x - outer)) < 1e-12

    def test_zero_coefficient_rejected(self, ref):
        bad = dict(ref.coeffs)
        bad[(1, 1)] = 0.0
        with pytest.raises(ValueError, match="zero coefficient"):
            synth_from_restricted(ref.ut_r, ref.ug_r, ref.support, bad)

    @pytest.mark.parametrize("cut", ["short time basis", "tall graph basis"])
    def test_wrong_height_bases_rejected(self, ref, cut):
        # used to return a 4 x 3 (or 8 x 4) signal for the T = N = 4 support
        ut_r = ref.ut_r[:3] if cut == "short time basis" else ref.ut_r
        ug_r = np.vstack([ref.ug_r, ref.ug_r]) if cut == "tall graph basis" else ref.ug_r
        with pytest.raises(ValueError, match="dims"):
            synth_from_restricted(ut_r, ug_r, ref.support, ref.coeffs)

    def test_wrong_keys_rejected(self, ref):
        with pytest.raises(ValueError, match="keyed exactly"):
            synth_from_restricted(ref.ut_r, ref.ug_r, ref.support, {(0, 0): 1.0})

    def test_errors_in_order(self, ref):
        # shape first, then keys, then the first zero in the dict's order
        zeros = {(2, 2): 0.0, (1, 1): 0.0, (1, 2): 1.0}
        with pytest.raises(ValueError, match="dims"):
            synth_from_restricted(ref.ut_r[:3], ref.ug_r, ref.support, {(0, 0): 0.0})
        with pytest.raises(ValueError, match="keyed exactly"):
            synth_from_restricted(ref.ut_r, ref.ug_r, ref.support, {(0, 0): 0.0})
        with pytest.raises(ValueError, match=r"zero coefficient at pair \(2, 2\)"):
            synth_from_restricted(ref.ut_r, ref.ug_r, ref.support, zeros)

    def test_matches_coefficient_grid_product(self):
        # X = U_G C U_T^T with C the K_G x K_T grid of the coefficients
        rng = np.random.default_rng(7)
        bt, bg = families.basis_pair(6, 5, rng)
        for _ in range(50):
            support = random_support(6, 5, rng)
            coeffs = random_coeffs(support, rng)
            ut_r, ug_r = restrict_bases(bt, bg, support)
            grid = np.zeros((support.k_g, support.k_t))
            for (jt, jg), val in coeffs.items():
                grid[support.graph_freqs.index(jg), support.time_freqs.index(jt)] = val
            x = synth_from_restricted(ut_r, ug_r, support, coeffs)
            assert np.array_equal(x, ug_r @ grid @ ut_r.T)

    def test_synth_detect_round_trip(self):
        rng = np.random.default_rng(123)
        bt, bg = families.basis_pair(5, 5, rng)
        for _ in range(100):
            support = random_support(5, 5, rng)
            coeffs = random_coeffs(support, rng)
            x = synth_signal(bt, bg, support, coeffs)
            detected = detect_support(jft(bt, bg, x))
            assert detected == support
