import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stwm import sampler
from stwm.kernel import ModeKernel, mode_cov, mode_var
from stwm.quadrature import QuadratureConfig
from stwm.sampler import (
    CholeskyError,
    FieldSample,
    SeedSpec,
    TimeGrid,
    _frac_weights,
    _inner_factor,
    _mode_stream,
    assemble_field,
    cholesky_psd,
    factorized_covariance,
    factorized_sample,
    fractional_convolution,
    gram,
    mode_grams,
    sample_field,
    sample_modes,
)
from stwm.spectral import SpectralModel, build_basis, evaluate_basis, mode_params
from stwm.specfun import gamma_fn

PI = math.pi
TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=4000)


def one_mode_model(mu=2.0, gamma=1.3, T=4.0):
    # beta = 1 and kappa2 = mu - pi^2/pi^2 puts lambda_1 = mu exactly
    b = build_basis(1, PI, mu - 1.0, 1)
    return SpectralModel(basis=b, basis_tilde=build_basis(1, PI, 0.0, 1),
                         alpha=0.0, beta=1.0, gamma=gamma, T=T)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, np.inf]))

    def test_uniform(self):
        g = TimeGrid.uniform(0.0, 1.0, 4)
        assert np.allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert abs(g.step - 0.25) < 1e-15

    def test_step_requires_uniform(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.1, 0.5])).step


class TestGram:
    def test_zero_row_from_initial_condition(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.0)
        G = gram(k, TimeGrid(np.array([0.0, 1.0])))
        assert G[0, 0] == 0.0 and G[0, 1] == 0.0
        assert abs(G[1, 1] - 0.43233235838169365) < 1e-10

    def test_closed_form_diagonal_and_reference_entries(self):
        # the diagonal is mode_var on every grid; off a uniform grid every
        # lagged entry is within 1e-12 of the TIGHT adaptive reference
        k = ModeKernel(mu=0.5, weight=2.0, gamma=0.8)
        other = TimeGrid(np.array([0.0, 0.3, 1.1, 2.0]))
        for grid in (TimeGrid.uniform(0.5, 2.0, 6), other):
            G = gram(k, grid)
            assert np.array_equal(np.diag(G), [mode_var(k, t) for t in grid.points])
        pts = other.points
        for i in range(pts.size):
            for j in range(pts.size):
                want = mode_cov(k, pts[i], pts[j], TIGHT)
                assert abs(G[i, j] - want) <= 1e-12 * want, (i, j)

    def test_subnormal_rate_matches_reference(self):
        # at mu = 1e-320 the rule's width caps 380 / mu and 0.5 / mu are
        # infinite; they must be formed without an overflow warning
        k = ModeKernel(mu=1e-320, weight=1.0, gamma=1.2)
        grid = TimeGrid.uniform(0.0, 2.0, 4)
        G = gram(k, grid)
        for i, s in enumerate(grid.points):
            for j, t in enumerate(grid.points):
                want = mode_cov(k, s, t, TIGHT)
                assert abs(G[i, j] - want) <= 1e-12 * want, (i, j)

    def test_single_origin_point(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.0)
        G = gram(k, TimeGrid(np.array([0.0])))
        assert G.tolist() == [[0.0]]

    def test_ou_off_diagonal(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.0)
        G = gram(k, TimeGrid(np.array([1.0, 2.0])))
        assert abs(G[0, 1] - 0.15904618640178920) < 1e-10

    def test_symmetric(self):
        k = ModeKernel(mu=0.5, weight=2.0, gamma=0.8)
        G = gram(k, TimeGrid(np.array([0.0, 0.3, 1.1, 2.0])))
        assert np.array_equal(G, G.T)


def spread_model(J=64, beta=1.0, gamma=1.3, T=5.0):
    # (0, pi) with mu_j = j^(2 beta): with J = 64 the largest mu is 4096 at beta 1
    b = build_basis(1, PI, 0.0, J)
    return SpectralModel(basis=b, basis_tilde=b, alpha=1.0, beta=beta, gamma=gamma, T=T)


def stacked_grams(model, grid):
    """Every mode's Gram matrix, the stacks of mode_grams joined in order."""
    return np.concatenate([S for _, S in mode_grams(model, grid)])


class TestModeGrams:
    """The stacks of mode_grams against the one-mode builder, mode by mode."""

    @pytest.mark.parametrize("gamma", [0.8, 1.6, 2.7])
    @pytest.mark.parametrize("beta,grid", [
        (1.0, TimeGrid.uniform(0.0, 5.0, 10)),
        (1.5, TimeGrid.uniform(0.3, 2.0, 12)),
        (2.0, TimeGrid.uniform(0.0, 5.0, 2)),
        (2.0, TimeGrid(np.array([0.0, 0.01, 0.3, 0.31, 1.7, 4.0]))),
        (2.0, TimeGrid(np.array([0.3, 0.35, 1.0, 2.5]))),
    ])
    def test_matches_per_mode_gram(self, beta, grid, gamma):
        model = spread_model(beta=beta, gamma=gamma)
        S = stacked_grams(model, grid)
        assert S.shape == (model.J, grid.n, grid.n)
        lagged = np.triu(np.ones((grid.n, grid.n), dtype=bool), 1)
        underflowed = 0
        for j in range(1, model.J + 1):
            k = mode_params(model, j)
            G = gram(k, grid)
            assert np.array_equal(np.diag(S[j - 1]), mode_var(k, grid.points))
            assert np.array_equal(S[j - 1], S[j - 1].T)
            assert np.array_equal(S[j - 1] == 0.0, G == 0.0), j
            assert np.all(np.abs(S[j - 1] - G) <= 2e-15 * np.abs(G)), j
            underflowed += not np.any(G[lagged])
        # the larger decay rates underflow at every lag, the smaller at none
        assert 0 < underflowed < model.J

    def test_empty_grid_rows(self):
        S = stacked_grams(spread_model(J=3), TimeGrid(np.array([0.0])))
        assert S.shape == (3, 1, 1) and np.all(S == 0.0)

    def test_chunks_stay_within_budget(self, monkeypatch):
        # a budget of three 7 x 7 matrices: modes come in stacks of 3, 3 and
        # 2, every one within 2e-15 of its one-mode gram
        grid = TimeGrid.uniform(0.0, 3.0, 6)
        model = spread_model(J=8, beta=0.5)
        monkeypatch.setattr(sampler, "_STACK_ENTRIES", 3 * 49 + 48)
        chunks = list(mode_grams(model, grid))
        assert [(j0, len(S)) for j0, S in chunks] == [(0, 3), (3, 3), (6, 2)]
        S = np.concatenate([c for _, c in chunks])
        for j in range(1, model.J + 1):
            G = gram(mode_params(model, j), grid)
            assert np.all(np.abs(S[j - 1] - G) <= 2e-15 * np.abs(G)), j
        # one mode at least, however small the budget
        monkeypatch.setattr(sampler, "_STACK_ENTRIES", 1)
        assert [len(c) for _, c in mode_grams(model, grid)] == [1] * model.J

    def test_rule_calls_stay_small(self, monkeypatch):
        # the first chunks of 64 modes at 9 lags go to the rule in calls of
        # at most _RULE_ENTRIES pairs, and agree with one call per mode
        sizes = []
        rule = sampler._lagged_integrals

        def counting_rule(g, mu, widths, lags):
            sizes.append(np.size(mu))
            return rule(g, mu, widths, lags)

        monkeypatch.setattr(sampler, "_lagged_integrals", counting_rule)
        grid = TimeGrid.uniform(0.0, 0.5, 10)
        model = spread_model(J=64, beta=0.5)
        S = stacked_grams(model, grid)
        assert sum(sizes) == 576 and max(sizes) == sampler._RULE_ENTRIES
        for j in range(1, model.J + 1):
            G = gram(mode_params(model, j), grid)
            assert np.all(np.abs(S[j - 1] - G) <= 2e-15 * np.abs(G)), j


def row_mirror(G):
    """Reference mirror of a (B, n, n) stack's upper triangles, one row at a time."""
    for i in range(G.shape[1] - 1):
        G[:, i + 1:, i] = G[:, i, i + 1:]


class TestMirrorUpper:
    """_gram_stack's tiled mirror against a row-by-row one, across tile boundaries."""

    T = sampler._TILE

    @pytest.mark.parametrize("n", [T - 1, T, T + 1, 2 * T + 1])
    @pytest.mark.parametrize("t0,uniform", [(0.0, True), (0.4, True), (0.0, False), (0.4, False)])
    def test_stack_matches_row_mirror(self, monkeypatch, n, t0, uniform):
        if uniform:
            grid = TimeGrid.uniform(t0, t0 + 2.0, n - 1)
        else:
            rng = np.random.default_rng(n)
            grid = TimeGrid(np.concatenate([[t0], t0 + np.sort(rng.uniform(0.0, 2.0, n - 1))]))
        mu, weight = [0.5, 3.0, 40.0], [1.0, 0.7, 0.2]
        S = sampler._gram_stack(1.3, mu, weight, grid)
        monkeypatch.setattr(sampler, "_mirror_upper", row_mirror)
        ref = sampler._gram_stack(1.3, mu, weight, grid)
        assert S.shape == (3, n, n)
        assert S.tobytes() == ref.tobytes()
        assert np.array_equal(S, S.transpose(0, 2, 1))
        assert (t0 == 0.0) == np.all(S[:, 0] == 0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, T - 1, T, T + 1, 2 * T + 5])
    def test_random_upper_triangles(self, n):
        rng = np.random.default_rng(n)
        U = rng.standard_normal((2, n, n))
        U[:, ::3, 1::4] = -0.0  # signed zeros are mirrored too
        U = np.triu(U)
        S, ref = U.copy(), U.copy()
        sampler._mirror_upper(S)
        row_mirror(ref)
        assert S.tobytes() == ref.tobytes()


class TestCholeskyPsd:
    T = sampler._TILE

    def test_identity(self):
        L, jitter = cholesky_psd(np.eye(3))
        assert np.array_equal(L, np.eye(3)) and jitter == 0.0

    def test_semidefinite_zero_row(self):
        L, _ = cholesky_psd(np.array([[0.0, 0.0], [0.0, 4.0]]))
        assert L.tolist() == [[0.0, 0.0], [0.0, 2.0]]

    def test_wishart_reconstruction(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((8, 8))
        G = A @ A.T
        L, _ = cholesky_psd(G)
        assert np.abs(L @ L.T - G).max() < 1e-12 * (1.0 + np.abs(G).max())

    def test_jitter_recorded_for_singular_psd(self):
        # rank-1 PSD matrix needs jitter to factor
        v = np.array([1.0, 2.0, 3.0])
        G = np.outer(v, v)
        L, jitter = cholesky_psd(G)
        assert jitter > 0.0
        tol = 1e-10 * (1.0 + np.abs(G).max())
        assert np.abs(L @ L.T - (G + jitter * np.eye(3))).max() < tol

    def test_symmetric_gram_factors_as_lapack(self):
        # an exactly symmetric matrix is factorized as it is
        G = gram(ModeKernel(mu=2.0, weight=1.0, gamma=1.3), TimeGrid.uniform(0.5, 2.0, 12))
        assert np.array_equal(G, G.T)
        assert np.array_equal(cholesky_psd(G)[0], np.linalg.cholesky(G))

    def test_asymmetry_within_tolerance_factors_symmetric_part(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((6, 8))
        G = A @ A.T
        G[3, 0] += 1e-13
        L, _ = cholesky_psd(G)
        assert np.abs(L @ L.T - (G + G.T) / 2.0).max() <= 1e-15 * np.abs(G).max()

    def test_non_psd_rejected(self):
        with pytest.raises(CholeskyError):
            cholesky_psd(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        cases = [np.array([[bad, 0.0], [0.0, 1.0]]),
                 np.full((2, 2), bad),
                 np.array([[1.0, bad], [bad, 1.0]]),
                 np.array([[1.0, bad], [0.0, 1.0]])]
        for A in cases:
            with pytest.raises(ValueError, match="non-finite"):
                cholesky_psd(A)

    @pytest.mark.parametrize("eps", [0.0, 1e-15])
    def test_interior_zero_variance_row(self, eps):
        # couplings of a zero-variance index within the symmetry tolerance
        # are dropped: its row and column of the factor are exactly zero
        A = np.array([[4.0, eps, 2.0], [eps, 0.0, eps], [2.0, eps, 5.0]])
        L, jitter = cholesky_psd(A)
        assert jitter == 0.0
        assert np.all(L[1] == 0.0) and np.all(L[:, 1] == 0.0)
        assert np.array_equal(L, np.tril(L))
        assert np.abs(L @ L.T - A).max() < 1e-14

    def test_coupled_zero_variance_rows_rejected(self):
        # two zero-variance indices coupled to each other: not PSD
        with pytest.raises(CholeskyError):
            cholesky_psd(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [5.0, np.ones(3), np.ones((2, 2, 2)), np.ones((2, 3))])
    def test_non_square_rejected(self, bad):
        with pytest.raises(ValueError, match="expected a square matrix"):
            cholesky_psd(bad)

    def tiled_wishart(self):
        # n = 2T + 7: three tile rows, the last one partial; entries near 1
        n = 2 * self.T + 7
        A = np.random.default_rng(21).standard_normal((n, n + 1))
        return A @ A.T / n

    # one defect below the diagonal past the first tile row: in an
    # off-diagonal tile, or in the last, partial diagonal tile
    DEFECTS = [(2 * T + 3, 5), (2 * T + 5, 2 * T + 1)]

    @pytest.mark.parametrize("at", DEFECTS)
    def test_asymmetry_rejected_across_tiles(self, at):
        G = self.tiled_wishart()
        G[at] += 1e-9
        with pytest.raises(ValueError, match="not symmetric"):
            cholesky_psd(G)

    @pytest.mark.parametrize("at", DEFECTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_across_tiles(self, bad, at):
        G = self.tiled_wishart()
        G[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cholesky_psd(G)

    @pytest.mark.parametrize("at", DEFECTS)
    def test_asymmetry_within_tolerance_across_tiles(self, at):
        G = self.tiled_wishart()
        G[at] += 1e-13
        L, jitter = cholesky_psd(G)
        assert jitter == 0.0
        assert L.tobytes() == np.linalg.cholesky((G + G.T) / 2.0).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_read_only_input_across_tiles(self, order):
        # the symmetry check works in a buffer of its own, whatever the
        # input's memory order
        G = np.array(self.tiled_wishart(), order=order)
        G[self.DEFECTS[0]] += 1e-13
        want = G.copy()
        G.setflags(write=False)
        L, _ = cholesky_psd(G)
        assert np.array_equal(G, want)
        assert L.tobytes() == np.linalg.cholesky((want + want.T) / 2.0).tobytes()

    @pytest.mark.parametrize("n", [T, T + 1, 2 * T + 3])
    def test_symmetric_gram_factors_as_lapack_across_tiles(self, n):
        # bit for bit at any tile count, and at the BLAS thread count the
        # tests run under
        G = gram(ModeKernel(mu=2.0, weight=1.0, gamma=1.3), TimeGrid.uniform(0.5, 2.0, n - 1))
        assert np.array_equal(G, G.T)
        L, jitter = cholesky_psd(G)
        assert jitter == 0.0
        assert L.tobytes() == np.linalg.cholesky(G).tobytes()

    def test_symmetric_gram_reaches_lapack_uncopied(self):
        # no working copy beside the argument: the traced peak is the factor
        # and the symmetry check's tile buffer (LAPACK's buffer is not traced)
        G = gram(ModeKernel(mu=2.0, weight=1.0, gamma=1.3), TimeGrid.uniform(0.5, 2.0, 2 * self.T + 6))
        tracemalloc.start()
        try:
            cholesky_psd(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * G.nbytes

    def test_origin_row_across_tiles(self):
        G = gram(ModeKernel(mu=2.0, weight=1.0, gamma=1.3), TimeGrid.uniform(0.0, 2.0, self.T + 9))
        L, _ = cholesky_psd(G)
        assert np.all(L[0] == 0.0) and np.all(L[:, 0] == 0.0)
        assert np.abs(L @ L.T - G).max() < 1e-12 * (1.0 + np.abs(G).max())

    def test_jitter_recorded_across_tiles(self):
        # rank-3 PSD matrix past one tile needs jitter to factor
        n = self.T + 40
        V = np.random.default_rng(3).standard_normal((n, 3))
        G = V @ V.T
        L, jitter = cholesky_psd(G)
        assert jitter > 0.0
        tol = 1e-10 * (1.0 + np.abs(G).max())
        assert np.abs(L @ L.T - (G + jitter * np.eye(n))).max() < tol

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n + 1))
        G = A @ A.T
        L, _ = cholesky_psd(G)
        assert np.abs(L @ L.T - G).max() <= 1e-10 * (1.0 + np.abs(G).max()) + 1e-13


def wishart(n, seed, rank=None):
    A = np.random.default_rng(seed).standard_normal((n, rank or n + 1))
    return A @ A.T


def with_dead_row(G, i):
    G = G.copy()
    G[i] = 0.0
    G[:, i] = 0.0
    return G


class TestStackedFactor:
    """_factor_psd on a stack against cholesky_psd on each member."""

    # 4 x 4 members: plain, dead row 0, dead row 2, asymmetric within the
    # tolerance, all dead
    def good_stack(self):
        skew = wishart(4, 3)
        skew[3, 1] += 1e-13
        return np.stack([wishart(4, 1), with_dead_row(wishart(4, 2), 0),
                         with_dead_row(wishart(4, 5), 2), skew, np.zeros((4, 4))])

    def assert_members_factor_as_cholesky_psd(self, S):
        want = [cholesky_psd(G) for G in S]
        for owned in (False, True):
            arg = S.copy()
            L, jitter = sampler._factor_psd(arg, owned=owned)
            if not owned:
                assert np.array_equal(arg, S)
            for b, (Lb, jb) in enumerate(want):
                assert L[b].tobytes() == Lb.tobytes(), (owned, b)
                assert jitter[b] == jb, (owned, b)
        return [jb for _, jb in want]

    def test_stack_factors_as_members(self):
        jitters = self.assert_members_factor_as_cholesky_psd(self.good_stack())
        assert jitters == [0.0] * 5

    def test_failed_stack_falls_back_per_member(self):
        # rank-deficient members make the stacked potrf fail; each member
        # then gets the factor and jitter of cholesky_psd, the dead row of
        # a singular member included
        S = self.good_stack()
        S[1] = with_dead_row(wishart(4, 6, rank=2), 0)
        S = np.concatenate([S, wishart(4, 7, rank=1)[None]])
        jitters = self.assert_members_factor_as_cholesky_psd(S)
        assert jitters[1] > 0.0 and jitters[-1] > 0.0 and jitters[0] == 0.0
        # the jitter steps come from the live diagonal: the dead row's unit
        # stand-in neither counts nor gets jitter
        d = np.diag(S[1])
        base = 1e-14 * d.sum() / np.count_nonzero(d)
        assert jitters[1] in [base * 10.0 ** k for k in range(sampler._MAX_JITTER_STEPS + 1)]
        L = cholesky_psd(S[1])[0]
        assert np.abs(L @ L.T - (S[1] + jitters[1] * np.diag(d > 0.0))).max() < 1e-12

    NAN = np.nan
    DEFECTS = {
        "non-finite": [[1.0, NAN, 0.0, 0.0], [NAN, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        "asymmetric": [[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        "negative diagonal": np.diag([1.0, -1.0, 1.0, 1.0]),
        "coupled dead rows": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        "not PSD": [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    }

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_defective_member_raises_as_cholesky_psd(self, defect, at):
        bad = np.array(self.DEFECTS[defect], dtype=float)
        with pytest.raises((ValueError, np.linalg.LinAlgError)) as want:
            cholesky_psd(bad)
        S = self.good_stack()
        S[at] = bad
        with pytest.raises(type(want.value)) as got:
            sampler._factor_psd(S, owned=True)
        assert str(got.value) == str(want.value)


# path 5 of stream (master 77, mode 2) with 8 live indices in format v4; the
# tolerance only admits last-bit differences of the ziggurat's exp/log tail
# on other CPUs
V4_FROZEN = [0.6476508713084829, 1.1081182939407703, -0.26510307348894857,
             -0.7513501852521615, -1.706418983218605, 0.8292626155238796,
             0.23461616554310397, -0.8357516219996435]


def v4_stream(master, mode):
    """The v4 stream of one mode, rebuilt from its definition: SFC64 seeded
    by child `mode` of SeedSequence(master)."""
    child = np.random.SeedSequence(master).spawn(mode + 1)[mode]
    return np.random.Generator(np.random.SFC64(child))


class TestStreams:
    def test_v4_matches_generator_rebuild_and_frozen_values(self):
        want = v4_stream(77, 2).standard_normal((6, 8))
        got = _mode_stream(77, 2).standard_normal((6, 8))
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got[5], V4_FROZEN, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [3, 5, 6, 8])
    def test_batched_rows_equal_single_path_draws(self, n):
        # a replay of factorized_sample from path p draws the p earlier paths
        # of mode 0's stream and drops them; the grid has n live indices
        k, grid = ModeKernel(mu=1.0, weight=1.0, gamma=1.2), TimeGrid.uniform(0.0, 1.0, n)
        L = _inner_factor(k, 0.3, grid)
        batch = v4_stream(9, 0).standard_normal((40, n))
        for p in (0, 1, 17, 39):
            want = fractional_convolution(L[:, 1:] @ batch[p], 0.3, k.mu, grid)
            got = factorized_sample(k, 0.3, grid, SeedSpec(9), path=p)
            assert got.tobytes() == want.tobytes(), p

    def test_prefix_identity_across_block_edges(self):
        model = spread_model(J=2, gamma=1.2)
        grid = TimeGrid(np.array([0.0, 0.5, 2.0]))
        full = sample_modes(model, grid, 4097, SeedSpec(23))
        for m in (1, 255, 256, 257, 4000):
            assert np.array_equal(full[:m], sample_modes(model, grid, m, SeedSpec(23))), m

    def test_padded_rows_never_reach_output(self, monkeypatch):
        # the rows that pad the last block of paths are 0; poisoned with nan
        # after the draw, they must still leave every output value untouched
        model = one_mode_model()
        grid = TimeGrid(np.array([0.0, 0.5, 1.0, 2.0]))
        want = sample_modes(model, grid, 257, SeedSpec(6))
        make = sampler._mode_stream
        padding = []

        class Poisoned:
            # each block's draw fills the leading rows of the mode's
            # (256, n) slice of the block buffer
            def __init__(self, master, mode):
                self.stream = make(master, mode)

            def standard_normal(self, out):
                self.stream.standard_normal(out=out)
                pad = out.base.reshape(-1, out.shape[1])[out.shape[0]:]
                padding.append(pad.shape[0])
                assert np.all(pad == 0.0)
                pad[:] = np.nan
                return out

        monkeypatch.setattr(sampler, "_mode_stream", Poisoned)
        got = sample_modes(model, grid, 257, SeedSpec(6))
        assert padding == [0, 255]
        assert np.array_equal(got, want)

    def test_distinct_streams(self):
        a, c = _mode_stream(1, 0).standard_normal((2, 4))  # paths 0 and 1 of 4 live indices
        b = _mode_stream(1, 1).standard_normal(4)
        assert not np.array_equal(a, b) and not np.array_equal(a, c)
        # SeedSequence([master, mode]) would give these two the same stream
        d = _mode_stream(1, 5).standard_normal(4)
        e = _mode_stream(1 + 5 * 2 ** 32, 0).standard_normal(4)
        assert not np.array_equal(d, e)

    def test_seed_spec_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2 ** 64)


class TestSampleModes:
    def test_zero_at_origin(self):
        model = one_mode_model()
        grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
        out = sample_modes(model, grid, 32, SeedSpec(5))
        assert np.all(out[:, :, 0] == 0.0)

    def test_independent_of_batch_size(self):
        model = one_mode_model()
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        full = sample_modes(model, grid, 10, SeedSpec(7))
        # resampling fewer paths reproduces the leading block
        head = sample_modes(model, grid, 3, SeedSpec(7))
        assert np.array_equal(full[:3], head)

    def test_prefix_bit_identical_on_long_grid(self):
        # more time points and paths than one BLAS block, where a plain
        # product's rounding depends on the number of rows
        b = build_basis(1, PI, 0.0, 3)
        model = SpectralModel(basis=b, basis_tilde=b, alpha=1.0, beta=1.0, gamma=1.1, T=3.0)
        grid = TimeGrid.uniform(0.0, 2.0, 60)
        full = sample_field(model, grid, [[1.0], [2.0]], 300, SeedSpec(8))
        for m in (1, 17, 257):
            head = sample_field(model, grid, [[1.0], [2.0]], m, SeedSpec(8))
            assert np.array_equal(full.values[:m], head.values)

    def test_variance_underflow_after_origin_gives_zero_values(self):
        # gamma(5, 2e-70) ~ 1e-351 underflows: q(t_1, t_1) is 0 at t_1 > 0
        model = one_mode_model(mu=1.0, gamma=3.0)
        grid = TimeGrid(np.array([0.0, 1e-70, 1.0]))
        S = stacked_grams(model, grid)
        assert S[0, 1, 1] == 0.0 and S[0, 2, 2] > 0.0
        out = sample_modes(model, grid, 16, SeedSpec(4))
        assert np.all(out[:, 0, :2] == 0.0) and np.all(out[:, 0, 2] != 0.0)

    def test_jittered_modes(self):
        # at gamma 8 on 121 points every mode's Gram is numerically singular,
        # so each factor needs jitter; the grid stays below 128 points, where
        # LAPACK potrf gives the same bits under 1 and 2 BLAS threads
        model = spread_model(J=3, gamma=8.0)
        grid = TimeGrid.uniform(0.0, 1.0, 120)
        for j in range(1, model.J + 1):
            assert cholesky_psd(gram(mode_params(model, j), grid))[1] > 0.0, j
        out = sample_modes(model, grid, 40, SeedSpec(12))
        assert np.all(np.isfinite(out))
        assert np.all(out[:, :, 0] == 0.0)
        assert np.array_equal(out, sample_modes(model, grid, 40, SeedSpec(12)))

    def test_empirical_covariance(self):
        # moderate-n sanity check; the full-strength law test is in acceptance
        model = one_mode_model(mu=1.0, gamma=1.0)
        grid = TimeGrid(np.array([0.0, 0.7, 1.6]))
        n = 20000
        out = sample_modes(model, grid, n, SeedSpec(314))
        emp = out[:, 0, :].T @ out[:, 0, :] / n
        G = gram(ModeKernel(mu=1.0, weight=1.0, gamma=1.0), grid)
        se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / n)
        assert np.all(np.abs(emp - G) <= 5.0 * se + 1e-12)

    def test_grid_outside_horizon_rejected(self):
        model = one_mode_model(T=1.0)
        with pytest.raises(ValueError):
            sample_modes(model, TimeGrid(np.array([0.0, 2.0])), 1, SeedSpec(0))

    def test_gamma_at_existence_boundary_rejected(self):
        model = one_mode_model(gamma=0.5)
        with pytest.raises(ValueError):
            sample_modes(model, TimeGrid(np.array([0.0, 0.5])), 1, SeedSpec(0))


def count_draws(monkeypatch):
    """Route every stream the sampler builds through a counter, and return
    the dict of normals drawn per mode: it has an entry for each stream
    built."""
    make, drawn = sampler._mode_stream, {}

    class Counted:
        def __init__(self, master, mode):
            self.stream, self.mode = make(master, mode), mode
            drawn.setdefault(mode, 0)

        def standard_normal(self, out):
            drawn[self.mode] += out.size
            return self.stream.standard_normal(out=out)

    monkeypatch.setattr(sampler, "_mode_stream", Counted)
    return drawn


def reference_modes(model, grid, n_paths, seed):
    """sample_modes from the v4 definition, one mode at a time: cholesky_psd
    of each Gram; the live suffix [i, n) from the Gram's positive diagonal;
    the mode's rebuilt stream read for the live indices of all paths in one
    draw; and one product by L[:, i:]^T per zero-padded 256-path block."""
    n, block = grid.n, sampler._PATH_BLOCK
    n_blocks = -(-n_paths // block)
    out = np.empty((n_paths, model.J, n))
    for j0, stack in mode_grams(model, grid):
        for j, G in enumerate(stack, start=j0):
            L = cholesky_psd(G)[0]
            live = np.flatnonzero(np.diag(G) > 0.0)
            i = live[0] if live.size else n
            assert np.array_equal(live, np.arange(i, n))  # a suffix
            Z = np.zeros((n_blocks * block, n - i))
            Z[:n_paths] = v4_stream(seed.master, j).standard_normal((n_paths, n - i))
            out[:, j] = (Z.reshape(n_blocks, block, n - i) @ L[:, i:].T).reshape(-1, n)[:n_paths]
    return out


def underflow_model():
    # at t_1 = 1e-60 the variance of modes 1-3 is subnormal and that of
    # mode 4 underflows to 0: one stack, different dead rows
    b = build_basis(1, PI, 0.0, 4)
    return SpectralModel(basis=b, basis_tilde=b, alpha=20.0, beta=1.0, gamma=3.0, T=5.0)


class TestSampleModesAgainstPerModeLoop:
    """The stacked factor and per-block products against one mode at a time."""

    CASES = {
        # 12 modes per stack and 3 per product: stacks of 12 and 8, groups
        # of 3, 3, 3, 3 and 3, 3, 2
        "several stacks": (lambda: spread_model(J=20, beta=0.5), TimeGrid.uniform(0.0, 3.0, 63),
                           3 * 256 * 64),
        "jittered stack": (lambda: spread_model(J=3, gamma=8.0), TimeGrid.uniform(0.0, 1.0, 120), None),
        "dead rows differ": (underflow_model, TimeGrid(np.array([0.0, 1e-60, 1.0])), None),
        "t_0 > 0": (lambda: spread_model(J=5), TimeGrid.uniform(0.5, 2.0, 7), None),
        # modes 1-3 live from t_1, mode 4 from t_2: two runs in one group
        "late live suffix": (underflow_model, TimeGrid(np.array([0.0, 1e-60, 1e-50, 1.0])), None),
        # mode 4 underflows at its one t > 0 point: all dead, beside live modes
        "all-dead mode": (underflow_model, TimeGrid(np.array([0.0, 1e-60])), None),
        "one point at t = 0": (lambda: spread_model(J=3), TimeGrid(np.array([0.0])), None),
    }

    @pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 4097])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical(self, monkeypatch, case, n_paths):
        make, grid, entries = self.CASES[case]
        if entries is not None:
            monkeypatch.setattr(sampler, "_STACK_ENTRIES", entries)
        model = make()
        got = sample_modes(model, grid, n_paths, SeedSpec(19))
        assert got.tobytes() == reference_modes(model, grid, n_paths, SeedSpec(19)).tobytes()

    def test_cases_cover_their_shapes(self, monkeypatch):
        make, grid, entries = self.CASES["several stacks"]
        monkeypatch.setattr(sampler, "_STACK_ENTRIES", entries)
        assert [len(S) for _, S in mode_grams(make(), grid)] == [12, 8]
        monkeypatch.undo()
        make, grid, _ = self.CASES["jittered stack"]
        (_, S), = mode_grams(make(), grid)
        assert np.all(sampler._factor_psd(S, owned=True)[1] > 0.0)
        make, grid, _ = self.CASES["dead rows differ"]
        (_, S), = mode_grams(make(), grid)
        assert np.all(S[:3, 1, 1] > 0.0) and S[3, 1, 1] == 0.0
        for case, want in (("late live suffix", [1, 1, 1, 2]), ("all-dead mode", [1, 1, 1, 2]),
                           ("one point at t = 0", [1, 1, 1])):
            make, grid, _ = self.CASES[case]
            (_, S), = mode_grams(make(), grid)
            assert sampler._first_live(S.diagonal(0, 1, 2)).tolist() == want, case

    @pytest.mark.parametrize("case", list(CASES))
    def test_dead_indices_draw_nothing(self, monkeypatch, case):
        # every mode draws n_paths normals per live index, in 256-path
        # blocks, and a mode with none builds no stream
        make, grid, entries = self.CASES[case]
        if entries is not None:
            monkeypatch.setattr(sampler, "_STACK_ENTRIES", entries)
        model, n_paths = make(), 300
        drawn = count_draws(monkeypatch)
        out = sample_modes(model, grid, n_paths, SeedSpec(19))
        want = {}
        for j0, S in mode_grams(model, grid):
            for j, G in enumerate(S, start=j0):
                n_live = np.count_nonzero(np.diag(G) > 0.0)
                assert np.all(out[:, j, :grid.n - n_live] == 0.0)
                if n_live:
                    want[j] = n_paths * n_live
        assert drawn == want


class TestAssembleField:
    def test_zero_modes_zero_field(self):
        b = build_basis(1, PI, 0.0, 3)
        fs = assemble_field(np.zeros((2, 3, 4)), b, [1.0, 2.0])
        assert np.all(fs.values == 0.0)

    def test_single_mode_linearity(self):
        b = build_basis(1, PI, 0.0, 3)
        paths = np.zeros((1, 3, 2))
        paths[0, 1, :] = 2.5
        xs = [0.5, 1.5]
        fs = assemble_field(paths, b, xs)
        E = evaluate_basis(b, xs)
        assert np.allclose(fs.values[0], 2.5 * np.tile(E[:, 1], (2, 1)), rtol=1e-14)

    def test_linear_combination(self):
        rng = np.random.default_rng(4)
        b = build_basis(1, PI, 0.0, 5)
        p1 = rng.standard_normal((3, 5, 4))
        p2 = rng.standard_normal((3, 5, 4))
        xs = [0.4, 1.0, 2.2]
        f1 = assemble_field(p1, b, xs).values
        f2 = assemble_field(p2, b, xs).values
        f12 = assemble_field(2.0 * p1 - 3.0 * p2, b, xs).values
        assert np.allclose(f12, 2.0 * f1 - 3.0 * f2, rtol=1e-12, atol=1e-12)

    def test_mode_count_mismatch(self):
        b = build_basis(1, PI, 0.0, 3)
        with pytest.raises(ValueError):
            assemble_field(np.zeros((1, 4, 2)), b, [1.0])

    def test_sample_field_shape_and_seed_record(self):
        model = one_mode_model()
        grid = TimeGrid(np.array([0.0, 1.0]))
        fs = sample_field(model, grid, [1.0, 2.0], 6, SeedSpec(9))
        assert fs.values.shape == (6, 2, 2)
        assert fs.seed_record == (9, 0)
        assert np.all(fs.values[:, 0, :] == 0.0)


class TestUniformModeGram:
    """gram on uniform grids, where lagged entries are cumulative sums of cell
    integrals instead of per-entry mode_cov."""

    @pytest.mark.parametrize("g,mu", [(0.9, 1.0), (0.7, 2.0), (1.2, 0.5), (2.0, 1.0)])
    def test_matches_mode_cov(self, g, mu):
        # grids from 0, from 0.5 and from just above 0, and the shape of
        # `stwm sample` on (0, pi) with J = 64: mu = 64^2 on 0..5 in 2 steps
        cases = [
            (mu, TimeGrid.uniform(0.0, 1.0, 64), [(1, 1), (5, 17), (33, 34), (64, 64), (2, 64)]),
            (mu, TimeGrid.uniform(0.5, 1.5, 64), [(0, 0), (0, 1), (5, 17), (33, 34), (0, 64)]),
            (mu, TimeGrid(1e-3 + np.arange(5.0)), [(0, 1), (1, 2), (0, 4), (3, 4)]),
            (4096.0, TimeGrid.uniform(0.0, 5.0, 2), [(1, 1), (1, 2), (2, 2)]),
        ]
        for mu_, grid, pairs in cases:
            k = ModeKernel(mu=mu_, weight=1.3, gamma=g)
            G = gram(k, grid)
            for i, j in pairs:
                want = mode_cov(k, grid.points[i], grid.points[j], TIGHT)
                assert abs(G[i, j] - want) <= 1e-9 * (abs(want) + 1e-12)

    @pytest.mark.parametrize("g,mu", [(0.7, 1.0), (1.3, 1.0), (0.55, 30.0), (2.5, 300.0)])
    def test_long_grid_matches_mode_cov(self, g, mu):
        # the row recursion carries each lag's cell sums across 2047 cells
        grid = TimeGrid.uniform(0.0, 1.0, 2048)
        k = ModeKernel(mu=mu, weight=1.0, gamma=g)
        G = gram(k, grid)
        assert np.array_equal(G, G.T)
        for i, j in [(1, 2048), (1024, 2048), (2047, 2048), (5, 6), (700, 1500)]:
            want = mode_cov(k, grid.points[i], grid.points[j], TIGHT)
            assert abs(G[i, j] - want) <= 1e-12 * want, (i, j)

    def test_zero_row(self):
        G = gram(ModeKernel(1.0, 1.0, 0.9), TimeGrid.uniform(0.0, 1.0, 8))
        assert np.all(G[0] == 0.0) and np.all(G[:, 0] == 0.0)

    @staticmethod
    def check_lagged_entries(grid, ref=TIGHT):
        # a lattice over mu in [1e-2, 1e8] (half decades) x gamma in [0.5001, 20],
        # against the adaptive mode_cov at tolerance `ref`; the bound is 1e-12
        # or the reference's own rel_tol, whichever is looser
        bound = max(1e-12, ref.rel_tol)
        pts = grid.points
        gammas = (0.5001, 0.51, 1.3, 2.5, 3.7, 5.0, 9.0, 14.0, 20.0)
        for mu, g in itertools.product(10.0 ** np.arange(-2.0, 8.5, 0.5), gammas):
            k = ModeKernel(mu=mu, weight=1.0, gamma=g)
            G = gram(k, grid)
            for i in range(pts.size):
                for j in range(i + 1, pts.size):
                    want = mode_cov(k, pts[i], pts[j], ref)
                    if want < 1e-300:
                        assert G[i, j] < 1e-290
                    else:
                        assert abs(G[i, j] - want) <= bound * want, (mu, g, i, j)

    # gram has no tolerance of its own; cfg is the adaptive reference's
    @pytest.mark.parametrize("cfg", [QuadratureConfig(), TIGHT], ids=["default", "tight"])
    @pytest.mark.parametrize("t0", [0.0, 0.5])
    @pytest.mark.parametrize("h", [1 / 64, 1 / 8, 2.5])
    def test_lagged_entries_sweep(self, h, t0, cfg):
        self.check_lagged_entries(TimeGrid(t0 + h * np.arange(6)), cfg)

    def test_lagged_entries_sweep_non_uniform(self):
        self.check_lagged_entries(TimeGrid(np.array([0.0, 0.01, 0.3, 0.31, 1.7, 4.0])))


class TestFractionalConvolution:
    def test_power_kernel_on_ones(self):
        # applying the operator to f = 1 with mu = 0 gives t^delta / Gamma(1+delta)
        grid = TimeGrid.uniform(0.0, 1.0, 512)
        for delta in (0.25, 0.5, 0.9):
            out = fractional_convolution(np.ones(grid.n), delta, 0.0, grid)
            want = grid.points ** delta / gamma_fn(1.0 + delta)
            assert np.abs(out - want).max() < 1e-12

    def test_exponential_kernel_on_ones(self):
        # mu > 0 against f = 1: int_0^t u^{d-1} e^{-mu u} du / Gamma(d)
        from stwm.specfun import lower_incomplete_gamma
        grid = TimeGrid.uniform(0.0, 2.0, 256)
        delta, mu = 0.4, 1.7
        out = fractional_convolution(np.ones(grid.n), delta, mu, grid)
        want = np.array([lower_incomplete_gamma(delta, mu * t) if t > 0 else 0.0
                         for t in grid.points]) * mu ** -delta / gamma_fn(delta)
        assert np.abs(out - want).max() < 1e-12

    def test_batched_shape(self):
        grid = TimeGrid.uniform(0.0, 1.0, 16)
        vals = np.ones((3, 2, grid.n))
        out = fractional_convolution(vals, 0.5, 1.0, grid)
        assert out.shape == vals.shape
        assert np.all(out[..., 0] == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        grid = TimeGrid.uniform(0.0, 1.0, 64)
        f1, f2 = rng.standard_normal((2, grid.n))
        a = fractional_convolution(3.0 * f1 - f2, 0.3, 1.0, grid)
        b = 3.0 * fractional_convolution(f1, 0.3, 1.0, grid) - fractional_convolution(f2, 0.3, 1.0, grid)
        assert np.abs(a - b).max() < 1e-12


class TestFactorizedSampler:
    def test_delta_range_enforced(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        grid = TimeGrid.uniform(0.0, 1.0, 32)
        for bad in (0.0, 0.7, 1.5):
            with pytest.raises(ValueError):
                factorized_sample(k, bad, grid, SeedSpec(0))

    def test_negative_path_rejected_before_the_factor(self, monkeypatch):
        monkeypatch.setattr(sampler, "_inner_factor", None)  # any factor built would fail
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        with pytest.raises(ValueError, match="path index must be >= 0, got -1"):
            factorized_sample(k, 0.3, TimeGrid.uniform(0.0, 1.0, 8), SeedSpec(0), path=-1)

    def test_path_shape_and_origin(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        grid = TimeGrid.uniform(0.0, 1.0, 128)
        path = factorized_sample(k, 0.3, grid, SeedSpec(11))
        assert path.shape == (129,)
        assert path[0] == 0.0

    def test_draws_live_indices_only(self, monkeypatch):
        # a replay from path p draws p + 1 paths of n - 1 normals each
        drawn = count_draws(monkeypatch)
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        grid = TimeGrid.uniform(0.0, 1.0, 32)
        for path in (0, 3):
            drawn.clear()
            assert factorized_sample(k, 0.3, grid, SeedSpec(8), path)[0] == 0.0
            assert drawn == {0: (path + 1) * (grid.n - 1)}

    def test_deterministic(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        grid = TimeGrid.uniform(0.0, 1.0, 64)
        a = factorized_sample(k, 0.3, grid, SeedSpec(21))
        b = factorized_sample(k, 0.3, grid, SeedSpec(21))
        assert np.array_equal(a, b)

    def test_variance_and_sample_share_one_gram(self, monkeypatch):
        calls = []

        def counting_gram(k, grid):
            calls.append(k)
            return gram(k, grid)

        monkeypatch.setattr(sampler, "gram", counting_gram)
        sampler._held_factor = None
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        grid = TimeGrid.uniform(0.0, 1.0, 64)
        var = factorized_covariance(k, 0.3, grid)
        path = factorized_sample(k, 0.3, grid, SeedSpec(31))
        assert len(calls) == 1
        factorized_sample(ModeKernel(mu=1.0, weight=1.0, gamma=1.3), 0.3, grid, SeedSpec(31))
        assert len(calls) == 2
        # cold-holder results, each from its own factor, are the same bits
        sampler._held_factor = None
        assert factorized_sample(k, 0.3, grid, SeedSpec(31)).tobytes() == path.tobytes()
        sampler._held_factor = None
        assert factorized_covariance(k, 0.3, grid) == var
        assert len(calls) == 4
        with pytest.raises(ValueError, match="read-only"):
            _inner_factor(k, 0.3, grid)[1, 1] = 0.0
        # against the public path: the factor of a fresh gram, and the
        # variance c^T G c of the gram itself
        G = gram(ModeKernel(mu=1.0, weight=1.0, gamma=k.gamma - 0.3), grid)
        z = v4_stream(31, 0).standard_normal(grid.n - 1)  # no draw at t = 0
        want = fractional_convolution(cholesky_psd(G)[0][:, 1:] @ z, 0.3, 1.0, grid)
        assert path.tobytes() == want.tobytes()
        c = _frac_weights(0.3, 1.0, grid.step, grid.n - 1)[::-1]
        want = c @ G[1:, 1:] @ c
        assert abs(var - want) <= 1e-14 * want

    def test_factor_rejects_grid_off_origin(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        with pytest.raises(ValueError, match="start at 0"):
            factorized_covariance(k, 0.3, TimeGrid.uniform(0.5, 1.0, 16))

    def test_held_factor_dropped_before_the_next(self):
        # after a cold op, an op on a new key holds at most the new Gram and
        # the new factor (numpy's LAPACK buffer is not traced)
        grid = TimeGrid.uniform(0.0, 1.0, 1024)
        sampler._held_factor = None
        tracemalloc.start()
        try:
            for gamma in (1.2, 1.4):
                tracemalloc.reset_peak()
                k = ModeKernel(mu=1.0, weight=1.0, gamma=gamma)
                factorized_covariance(k, 0.3, grid)
                factorized_sample(k, 0.3, grid, SeedSpec(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * grid.n ** 2 * 8

    def test_covariance_close_at_moderate_resolution(self):
        # 2^-10 grid reproduces the exact variance at t = 1 within 2 percent
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        var = factorized_covariance(k, 0.3, TimeGrid.uniform(0.0, 1.0, 1024))
        want = mode_var(k, 1.0)
        assert abs(var - want) / want < 0.02

    def test_covariance_error_halves_per_refinement(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        want = mode_var(k, 1.0)
        errs = [abs(factorized_covariance(k, 0.3, TimeGrid.uniform(0.0, 1.0, n)) - want) / want
                for n in (256, 1024)]
        assert errs[1] < errs[0] / 2.0

    def test_sampled_paths_follow_discretized_law(self):
        # empirical variance of sampled paths against the exact variance of
        # the scheme's law (factorized_covariance), so the only discrepancy
        # left is Monte Carlo noise
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
        delta, n_cells, n_paths = 0.3, 128, 500
        grid = TimeGrid.uniform(0.0, 1.0, n_cells)
        inner = ModeKernel(mu=k.mu, weight=k.weight, gamma=k.gamma - delta)
        L, _ = cholesky_psd(gram(inner, grid))
        Z = v4_stream(4242, 0).standard_normal((n_paths, grid.n - 1))  # no draw at t = 0
        finals = fractional_convolution(Z @ L[:, 1:].T, delta, k.mu, grid)[:, -1]
        want = factorized_covariance(k, delta, grid)
        emp = float(np.mean(finals ** 2))
        se = want * math.sqrt(2.0 / n_paths)
        assert abs(emp - want) <= 4.0 * se


def test_2d_field_variance_consistency():
    # Monte Carlo field variance against the diagonal spectral sum on a square
    b = build_basis(2, (PI, PI), 0.0, 9)
    model = SpectralModel(basis=b, basis_tilde=b, alpha=1.0, beta=1.0, gamma=1.0, T=4.0)
    x = (PI / 2.0, PI / 3.0)
    grid = TimeGrid(np.array([0.0, 3.0]))
    n = 20000
    fs = sample_field(model, grid, [x], n, SeedSpec(99))
    emp = float(np.mean(fs.values[:, 1, 0] ** 2))
    E = evaluate_basis(b, [x])[0]
    want = sum(mode_var(ModeKernel(mu=lam, weight=lam ** -1.0, gamma=1.0), 3.0) * E[j] ** 2
               for j, lam in enumerate(b.eigenvalues))
    se = want * math.sqrt(2.0 / n)
    assert abs(emp - want) <= 4.0 * se


@pytest.mark.parametrize("pts", [np.array([0.7, 1.1]), np.array([[0.7, 1.1]]),
                                 np.array([[[0.7]], [[1.1]]])], ids=["1d", "transposed", "3d"])
def test_field_sample_rejects_points_not_one_per_row(pts):
    with pytest.raises(ValueError, match="n_points, d"):
        FieldSample(times=TimeGrid(np.array([0.0, 1.0])), space_points=pts,
                    values=np.zeros((1, 2, 2)))


def test_sample_field_rejects_nan_point():
    with pytest.raises(ValueError, match="open domain"):
        sample_field(one_mode_model(), TimeGrid.uniform(0.0, 1.0, 2), [math.nan], 3, SeedSpec(1))


def test_field_sample_immutable_record():
    fs = FieldSample(times=TimeGrid(np.array([0.0, 1.0])), space_points=np.array([[1.0]]),
                     values=np.zeros((1, 2, 1)), seed_record=(3, 0))
    with pytest.raises(AttributeError):
        fs.values = None
