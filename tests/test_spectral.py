import json
import math
import warnings

import numpy as np
import pytest

from stwm.spectral import (
    ConfigError,
    SpectralModel,
    build_basis,
    evaluate_basis,
    model_from_dict,
    model_from_json,
    model_to_dict,
    mode_params,
    weyl_ratio,
)

PI = math.pi


def make_model(d=1, extents=PI, kappa2=0.0, kappa2_t=0.0, J=16,
               alpha=0.0, beta=1.0, gamma=1.0, T=10.0):
    return SpectralModel(
        basis=build_basis(d, extents, kappa2, J),
        basis_tilde=build_basis(d, extents, kappa2_t, J),
        alpha=alpha, beta=beta, gamma=gamma, T=T)


class TestBuildBasis:
    def test_1d_dirichlet_on_pi(self):
        b = build_basis(1, PI, 0.0, 3)
        assert np.allclose(b.eigenvalues, [1.0, 4.0, 9.0], rtol=1e-14)

    def test_1d_constant_shift(self):
        b = build_basis(1, PI, 2.0, 2)
        assert np.allclose(b.eigenvalues, [3.0, 6.0], rtol=1e-14)

    def test_2d_square(self):
        b = build_basis(2, (PI, PI), 0.0, 4)
        assert np.allclose(b.eigenvalues, [2.0, 5.0, 5.0, 8.0], rtol=1e-14)
        assert b.index_map == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_2d_brute_force_agreement(self):
        # smallest J of j^2 + k^2 enumerated over a generous square
        J = 200
        b = build_basis(2, (PI, PI), 0.0, J)
        brute = sorted(j * j + k * k for j in range(1, 80) for k in range(1, 80))[:J]
        assert np.allclose(b.eigenvalues, brute, rtol=1e-12)

    def test_2d_rectangle(self):
        b = build_basis(2, (1.0, 2.0), 0.0, 3)
        lam = lambda j, k: (j * PI) ** 2 + (k * PI / 2.0) ** 2
        brute = sorted(lam(j, k) for j in range(1, 20) for k in range(1, 20))[:3]
        assert np.allclose(b.eigenvalues, brute, rtol=1e-12)

    def test_deterministic_tie_break(self):
        a = build_basis(2, (PI, PI), 0.0, 50)
        b = build_basis(2, (PI, PI), 0.0, 50)
        assert a.index_map == b.index_map
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sorted_nondecreasing_positive(self):
        b = build_basis(2, (1.3, 0.7), 0.5, 300)
        assert np.all(np.diff(b.eigenvalues) >= 0.0)
        assert np.all(b.eigenvalues > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_basis(3, (1.0, 1.0, 1.0), 0.0, 4)
        with pytest.raises(ValueError):
            build_basis(1, PI, 0.0, 0)
        with pytest.raises(ValueError):
            build_basis(1, PI, -1.0, 4)
        with pytest.raises(ValueError):
            build_basis(1, -PI, 0.0, 4)
        with pytest.raises(ValueError):
            build_basis(1, PI, 0.0, 10 ** 7 + 1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                build_basis(1, PI, bad, 4)
            with pytest.raises(ValueError):
                build_basis(1, bad, 0.0, 4)
            with pytest.raises(ValueError):
                build_basis(2, (PI, bad), 0.0, 4)

    def test_eigenvalues_read_only(self):
        b = build_basis(1, PI, 0.0, 4)
        with pytest.raises(ValueError):
            b.eigenvalues[0] = 99.0


class TestEvaluateBasis:
    def test_1d_values(self):
        b = build_basis(1, PI, 0.0, 2)
        E = evaluate_basis(b, [PI / 2.0])
        assert abs(E[0, 0] - math.sqrt(2.0 / PI)) < 1e-14
        assert abs(E[0, 1]) < 1e-13

    def test_2d_product(self):
        b = build_basis(2, (PI, PI), 0.0, 1)
        E = evaluate_basis(b, [(PI / 2.0, PI / 2.0)])
        assert abs(E[0, 0] - 2.0 / PI) < 1e-14

    def test_orthonormal_gram(self):
        # trapezoid Gram on a fine lattice; interior sine sampling makes the
        # discrete Gram essentially exact
        b = build_basis(1, PI, 0.0, 20)
        n = 4096
        xs = np.linspace(0.0, PI, n + 1)[1:-1]
        E = evaluate_basis(b, xs)
        h = PI / n
        G = h * (E.T @ E)
        assert np.abs(G - np.eye(20)).max() < 1e-6

    def test_orthonormal_gram_2d(self):
        b = build_basis(2, (PI, PI), 0.0, 20)
        n = 64
        ax = np.linspace(0.0, PI, n + 1)[1:-1]
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        E = evaluate_basis(b, pts)
        G = (PI / n) ** 2 * (E.T @ E)
        assert np.abs(G - np.eye(20)).max() < 1e-6

    def test_outside_domain_rejected(self):
        b = build_basis(1, PI, 0.0, 2)
        for bad in (0.0, PI, -0.1, 4.0, math.nan):
            with pytest.raises(ValueError):
                evaluate_basis(b, [bad])
        with pytest.raises(ValueError, match="axis 1"):
            evaluate_basis(build_basis(2, (PI, PI), 0.0, 2), [(1.0, math.nan)])


class TestWeylRatio:
    def test_exact_1d(self):
        lo, hi = weyl_ratio(build_basis(1, PI, 0.0, 100))
        assert abs(lo - 1.0) < 1e-14 and abs(hi - 1.0) < 1e-14

    def test_1d_with_shift(self):
        lo, hi = weyl_ratio(build_basis(1, PI, 1.0, 100))
        assert hi <= 1.0 + 1.0 / 2500.0 + 1e-12
        assert lo >= 1.0

    def test_2d_bounds(self):
        lo, hi = weyl_ratio(build_basis(2, (PI, PI), 0.0, 1000))
        assert PI / 8.0 <= lo <= hi <= 8.0 / PI

    def test_shift_perturbation(self):
        lo0, hi0 = weyl_ratio(build_basis(1, PI, 0.0, 200))
        lo1, hi1 = weyl_ratio(build_basis(1, PI, 3.0, 200))
        pert = 3.0 / 100.0 ** 2
        assert abs(lo1 - lo0) <= pert * 1.01
        assert abs(hi1 - hi0) <= pert * 1.01

    def test_requires_ten_modes(self):
        with pytest.raises(ValueError):
            weyl_ratio(build_basis(1, PI, 0.0, 9))


class TestSpectralModel:
    def test_mode_params(self):
        m = make_model(J=4, alpha=1.0, beta=0.5, gamma=1.2)
        k = mode_params(m, 2)
        assert abs(k.mu - 2.0) < 1e-14          # lambda_2 = 4, beta = 1/2
        assert abs(k.weight - 0.25) < 1e-14     # lambda_tilde_2 = 4, alpha = 1
        assert k.gamma == 1.2

    def test_beta_zero_unit_rates(self):
        m = make_model(J=5, beta=0.0)
        assert all(mode_params(m, j).mu == 1.0 for j in range(1, 6))

    def test_index_bounds(self):
        m = make_model(J=4)
        with pytest.raises(IndexError):
            mode_params(m, 0)
        with pytest.raises(IndexError):
            mode_params(m, 5)

    @pytest.mark.parametrize("kw,first_bad", [
        ({"J": 8, "beta": 400.0}, 3),                  # lambda_3^beta = 9^400
        ({"J": 8, "alpha": 100.0, "extents": 1000.0}, 1),  # lambda_tilde_1^-alpha ~ 1e500
    ], ids=["rate", "weight"])
    def test_overflowing_power_raises_naming_mode(self, kw, first_bad):
        m = make_model(**kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            for j in range(1, first_bad):
                mode_params(m, j)
            for j in range(first_bad, m.J + 1):
                with pytest.raises(OverflowError, match=f"mode {j}:"):
                    mode_params(m, j)

    def test_mismatched_bases_rejected(self):
        with pytest.raises(ValueError):
            SpectralModel(basis=build_basis(1, PI, 0.0, 4),
                          basis_tilde=build_basis(1, PI, 0.0, 5),
                          alpha=0.0, beta=1.0, gamma=1.0, T=1.0)
        with pytest.raises(ValueError):
            SpectralModel(basis=build_basis(1, PI, 0.0, 4),
                          basis_tilde=build_basis(1, 2 * PI, 0.0, 4),
                          alpha=0.0, beta=1.0, gamma=1.0, T=1.0)

    def test_kappa_shift_family_allowed(self):
        m = make_model(kappa2=0.0, kappa2_t=2.0, J=4)
        assert m.basis_tilde.eigenvalues[0] == m.basis.eigenvalues[0] + 2.0

    def test_parameter_validation(self):
        for kw in ({"alpha": -1.0}, {"beta": -0.5}, {"gamma": 0.0}, {"T": 0.0},
                   {"alpha": math.nan}, {"alpha": math.inf}, {"beta": math.nan},
                   {"beta": math.inf}, {"gamma": math.nan}, {"gamma": math.inf},
                   {"T": math.nan}, {"T": math.inf}):
            with pytest.raises(ValueError):
                make_model(**kw)


class TestModelConfig:
    DOC = {"d": 1, "extents": PI, "kappa2": 0.0, "kappa2_tilde": 1.0, "J": 8,
           "alpha": 1.0, "beta": 1.0, "gamma": 1.2, "T": 5.0}

    def test_round_trip(self, tmp_path):
        m = model_from_dict(self.DOC)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(m)))
        m2 = model_from_json(path)
        assert np.array_equal(m.basis.eigenvalues, m2.basis.eigenvalues)
        assert (m2.alpha, m2.beta, m2.gamma, m2.T) == (1.0, 1.0, 1.2, 5.0)
        assert m2.basis_tilde.kappa2 == 1.0

    def test_json_reads_full_run_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": self.DOC, "grid": {"t_start": 0.0, "t_end": 1.0,
                                                                 "steps": 4}}))
        m = model_from_json(path)
        assert (m.J, m.gamma, m.basis_tilde.kappa2) == (8, 1.2, 1.0)

    @pytest.mark.parametrize("text,field", [
        (None, "--config"), ("{not json", "--config"), ("[1, 2]", "<root>"),
        ('{"model": 3}', "model"),
    ], ids=["missing-file", "invalid-json", "list-root", "model-not-object"])
    def test_json_defects_are_config_errors(self, tmp_path, text, field):
        path = tmp_path / "run.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=f"'{field}'"):
            model_from_json(path)

    def test_missing_field_named(self):
        doc = dict(self.DOC)
        del doc["gamma"]
        with pytest.raises(ConfigError, match="gamma"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field,bad", [
        ("d", True), ("d", 1.5), ("J", True), ("J", "8"), ("alpha", True), ("gamma", "1.5"),
        ("extents", "3"), ("extents", [True]), ("kappa2", None), ("kappa2_tilde", [1.0]),
        ("beta", False), ("T", "5"), ("T", math.inf), ("gamma", math.nan),
        pytest.param("kappa2", 10 ** 400, id="kappa2-10**400"),
    ])
    def test_non_numeric_field_named(self, field, bad):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            model_from_dict(dict(self.DOC, **{field: bad}))

    def test_bad_dimension_named(self):
        doc = dict(self.DOC, d=3)
        with pytest.raises(ConfigError, match="'d'"):
            model_from_dict(doc)
