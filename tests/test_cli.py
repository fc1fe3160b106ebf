import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stwm import analysis, cli, kernel, sampler
from stwm.fieldfile import format_number, read_field, write_csv, write_field, write_field_csv
from stwm.kernel import ModeKernel, mode_cov
from stwm.quadrature import QuadratureConfig
from stwm.sampler import FieldSample, TimeGrid, gram
from stwm.spectral import evaluate_basis, model_from_dict, mode_params, weyl_ratio

PI = math.pi
TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=4000)

BASE_CONFIG = {
    "model": {"d": 1, "extents": PI, "kappa2": 0.0, "kappa2_tilde": 0.0,
              "J": 8, "alpha": 1.0, "beta": 1.0, "gamma": 1.0, "T": 6.0},
    "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 4},
    "space": {"points": [1.0, PI / 2.0]},
    "n_paths": 48,
    "seed": 20240,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run_cli(args):
    return cli.main(args)


class TestBasisCommand:
    def test_eigenvalue_table(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["--config", config_path, "--out", str(out), "basis"]) == 0
        rows = (out / "basis.csv").read_text().strip().splitlines()
        assert rows[0] == "j,lambda,lambda_tilde,weyl_ratio"
        first = rows[1].split(",")
        assert first[0] == "1" and float(first[1]) == 1.0
        assert float(rows[3].split(",")[1]) == 9.0

    def test_2d_eigenvalues(self, tmp_path):
        doc = {"model": dict(BASE_CONFIG["model"], d=2, extents=[PI, PI], J=4)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "basis"]) == 0
        lams = [float(r.split(",")[1]) for r in
                (tmp_path / "basis.csv").read_text().strip().splitlines()[1:]]
        assert lams == [2.0, 5.0, 5.0, 8.0]

    def test_frozen_bytes(self, tmp_path):
        doc = {"model": dict(BASE_CONFIG["model"], kappa2_tilde=0.5, J=3)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "basis"]) == 0
        assert (tmp_path / "basis.csv").read_bytes() == (
            b"j,lambda,lambda_tilde,weyl_ratio\n1,1,1.5,1\n2,4,4.5,1\n3,9,9.5,1\n")

    def test_weyl_ratio_printed_from_ten_modes(self, tmp_path, capsys):
        doc = {"model": dict(BASE_CONFIG["model"], J=10)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "basis"]) == 0
        lo, hi = weyl_ratio(model_from_dict(doc).basis)
        assert f"[{format_number(lo)}, {format_number(hi)}]\n" in capsys.readouterr().out

    def test_invalid_dimension_exit_2_names_field(self, tmp_path, capsys):
        doc = {"model": dict(BASE_CONFIG["model"], d=3)}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "basis"]) == 2
        assert "'d'" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert run_cli(["--config", str(tmp_path / "nope.json"), "basis"]) == 2

    def test_no_config_exit_2(self, tmp_path, capsys):
        assert run_cli(["--out", str(tmp_path / "o"), "basis"]) == 2
        assert "'--config'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSampleCommand:
    def test_minimal_sample(self, tmp_path):
        doc = dict(BASE_CONFIG, n_paths=2)
        doc["model"] = dict(BASE_CONFIG["model"], J=1)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run_cli(["--config", str(p), "--out", str(out), "sample"]) == 0
        fs = read_field(out / "field.stwm")
        assert fs.values.shape == (2, 5, 2)
        assert np.all(fs.values[:, 0, :] == 0.0)

    def test_deterministic_bytes(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["--config", config_path, "--out", str(out1), "sample"]) == 0
        assert run_cli(["--config", config_path, "--out", str(out2), "sample"]) == 0
        assert (out1 / "field.stwm").read_bytes() == (out2 / "field.stwm").read_bytes()

    def test_seed_flag_overrides(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["--config", config_path, "--out", str(out1), "sample"])
        run_cli(["--config", config_path, "--out", str(out2), "--seed", "999", "sample"])
        assert (out1 / "field.stwm").read_bytes() != (out2 / "field.stwm").read_bytes()

    def test_seed_record_printed(self, config_path, tmp_path, capsys):
        run_cli(["--config", config_path, "--out", str(tmp_path / "r"), "sample"])
        assert "master=20240" in capsys.readouterr().out

    def test_mean_within_clt_band(self, config_path, tmp_path):
        out = tmp_path / "run"
        run_cli(["--config", config_path, "--out", str(out), "sample"])
        rows = (out / "sample_summary.csv").read_text().strip().splitlines()[1:]
        n = BASE_CONFIG["n_paths"]
        for row in rows:
            _, mean, var = map(float, row.split(","))
            assert abs(mean) <= 4.0 * math.sqrt(var / n) + 1e-12

    def test_divergent_variance_exit_3(self, tmp_path):
        doc = dict(BASE_CONFIG)
        doc["model"] = dict(BASE_CONFIG["model"], alpha=0.0, beta=0.0, gamma=1.0)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "x"), "sample"]) == 3

    def test_force_overrides_divergence(self, tmp_path):
        doc = dict(BASE_CONFIG)
        doc["model"] = dict(BASE_CONFIG["model"], alpha=0.0, beta=0.0, gamma=1.0)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "x"), "--force", "sample"]) == 0

    def test_gamma_half_exit_3(self, tmp_path):
        doc = dict(BASE_CONFIG)
        doc["model"] = dict(BASE_CONFIG["model"], gamma=0.5)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "x"), "sample"]) == 3

    def test_config_file_not_mutated(self, config_path, tmp_path):
        before = Path(config_path).read_text()
        run_cli(["--config", config_path, "--out", str(tmp_path / "r"), "sample"])
        assert Path(config_path).read_text() == before

    @pytest.mark.parametrize("extents", [PI, [PI, 2.0]], ids=["1d", "2d"])
    def test_lattice_points(self, tmp_path, extents):
        # n interior points ell k / (n + 1) per axis, in ij order
        n, ells = 3, np.atleast_1d(extents)
        model = dict(BASE_CONFIG["model"], d=ells.size, extents=extents, J=4, alpha=2.0)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, model=model, n_paths=2, space={"lattice": n})))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "sample"]) == 0
        fs = read_field(tmp_path / "field.stwm")
        axes = [[ell * k / (n + 1) for k in range(1, n + 1)] for ell in ells]
        np.testing.assert_allclose(fs.space_points, list(itertools.product(*axes)),
                                   rtol=1e-15, atol=0.0)
        assert fs.values.shape == (2, 5, n ** ells.size)

    def test_threads_below_one_exit_2(self, config_path, tmp_path, capsys):
        assert run_cli(["--config", config_path, "--out", str(tmp_path), "--threads", "-3",
                        "sample"]) == 2
        assert "'--threads'" in capsys.readouterr().err
        assert not (tmp_path / "field.stwm").exists()

    def test_seed_flag_out_of_range_exit_2(self, config_path, tmp_path, capsys):
        assert run_cli(["--config", config_path, "--out", str(tmp_path / "o"), "--seed", "-1",
                        "sample"]) == 2
        assert capsys.readouterr().err == (
            "config error: config field '--seed': must be in [0, 2^64), got -1\n")
        assert not (tmp_path / "o").exists()

    def test_threads_flag_has_no_effect(self, config_path, tmp_path):
        fields = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert run_cli(["--config", config_path, "--out", str(out), "--threads", threads,
                            "sample"]) == 0
            fields.append((out / "field.stwm").read_bytes())
        assert fields[0] == fields[1]


class TestCovCommand:
    def test_mode_cov_values(self, tmp_path):
        doc = dict(BASE_CONFIG)
        doc["grid"] = {"t_start": 0.0, "t_end": 2.0, "steps": 2}
        doc["model"] = dict(BASE_CONFIG["model"], alpha=0.0, kappa2=0.0)
        doc["cov"] = {"mode": 1}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "cov"]) == 0
        rows = (tmp_path / "cov.csv").read_text().strip().splitlines()
        table = {(float(r.split(",")[0]), float(r.split(",")[1])): float(r.split(",")[2])
                 for r in rows[1:]}
        assert table[(0.0, 1.0)] == 0.0
        assert abs(table[(1.0, 1.0)] - 0.43233235838169365) < 1e-10
        assert abs(table[(1.0, 2.0)] - 0.15904618640178920) < 1e-10

    def test_mode_index_out_of_range_exit_2(self, tmp_path, capsys):
        doc = dict(BASE_CONFIG, cov={"mode": 99})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "cov"]) == 2
        assert "cov.mode" in capsys.readouterr().err

    def test_subnormal_rate_silent(self, tmp_path, capsys):
        # mu_8 = (8 pi / 1000)^200 = 1.1e-320: a warning on the way would
        # fail the run (pyproject.toml) and print to stderr under python
        doc = dict(BASE_CONFIG, cov={"mode": 8},
                   model=dict(BASE_CONFIG["model"], extents=1000.0, beta=100.0, gamma=1.2))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "cov"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("target", [3, "field"])
    @pytest.mark.parametrize("gamma", [0.8, 1.6])
    def test_table_matches_mode_cov(self, tmp_path, gamma, target):
        model_doc = dict(BASE_CONFIG["model"], J=16, gamma=gamma)
        doc = dict(BASE_CONFIG, model=model_doc, grid={"t_start": 0.0, "t_end": 2.0, "steps": 8},
                   cov={"mode": target, "x": 0.9, "y": 2.3})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "cov"]) == 0
        lines = (tmp_path / "cov.csv").read_text().splitlines()
        assert lines[0] == "s,t,value"
        pts = np.linspace(0.0, 2.0, 9)
        pairs = [(s, t) for s in pts for t in pts[pts >= s]]
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert [(s, t) for s, t, _ in rows] == pairs
        model = model_from_dict(model_doc)
        if target == "field":
            coeffs = evaluate_basis(model.basis, [0.9])[0] * evaluate_basis(model.basis, [2.3])[0]
        else:
            coeffs = np.eye(model.J)[target - 1]
        for s, t, value in rows:
            if s == 0.0:
                assert value == 0.0
                continue
            terms = [mode_cov(mode_params(model, j), s, t, TIGHT) * coeffs[j - 1]
                     for j in range(1, model.J + 1)]
            assert abs(value - math.fsum(terms)) <= 1e-10 * math.fsum(abs(z) for z in terms)


    @pytest.mark.parametrize("gamma", [0.8, 1.6])
    def test_field_table_at_benchmark_shape(self, tmp_path, gamma):
        # the cov_table_cli shape (J = 64, 11 points on [0, 5]): every entry
        # within 1e-9 sum_j |terms| of TIGHT mode_cov, the benchmark's COV_TOL
        model_doc = dict(BASE_CONFIG["model"], J=64, gamma=gamma, T=5.0)
        x, y = 0.7, 2.1
        doc = dict(BASE_CONFIG, model=model_doc, grid={"t_start": 0.0, "t_end": 5.0, "steps": 10},
                   cov={"mode": "field", "x": x, "y": y})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "cov"]) == 0
        rows = [tuple(float(v) for v in line.split(","))
                for line in (tmp_path / "cov.csv").read_text().splitlines()[1:]]
        assert len(rows) == 66
        model = model_from_dict(model_doc)
        coeffs = evaluate_basis(model.basis, [x])[0] * evaluate_basis(model.basis, [y])[0]
        for s, t, value in rows:
            if s == 0.0:
                assert value == 0.0
                continue
            terms = [mode_cov(mode_params(model, j), s, t, TIGHT) * coeffs[j - 1]
                     for j in range(1, model.J + 1)]
            assert abs(value - math.fsum(terms)) <= 1e-9 * math.fsum(abs(z) for z in terms)


class TestOneGramStack:
    """`stwm cov` on the field target and `stwm sample` build every mode's
    Gram in one stack per op and never call the one-mode gram."""

    @pytest.fixture
    def stacks(self, monkeypatch):
        calls = []
        build = sampler._gram_stack

        def counting_stack(*args):
            calls.append(len(args[1]))
            return build(*args)

        def no_gram(*args):
            raise AssertionError("per-mode gram called")

        monkeypatch.setattr(sampler, "_gram_stack", counting_stack)
        for module in (sampler, analysis, cli):
            monkeypatch.setattr(module, "gram", no_gram)
        return calls

    @pytest.mark.parametrize("command", ["sample", "cov"])
    def test_one_stack_per_op(self, tmp_path, stacks, command):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, cov={"mode": "field", "x": 1.0, "y": 2.0})))
        for op in range(2):
            assert run_cli(["--config", str(p), "--out", str(tmp_path), command]) == 0
            assert stacks == [BASE_CONFIG["model"]["J"]] * (op + 1)


class TestCovFieldTarget:
    def test_field_cov_table(self, tmp_path):
        doc = dict(BASE_CONFIG)
        doc["grid"] = {"t_start": 0.0, "t_end": 2.0, "steps": 1}
        doc["cov"] = {"mode": "field", "x": PI / 2.0}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "cov"]) == 0
        rows = (tmp_path / "cov.csv").read_text().strip().splitlines()[1:]
        diag = [float(r.split(",")[2]) for r in rows if r.split(",")[0] == r.split(",")[1]]
        assert diag[0] == 0.0 and diag[1] > 0.0

    def test_field_needs_x(self, tmp_path):
        doc = dict(BASE_CONFIG, cov={"mode": "field"})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "cov"]) == 2


class TestNumericalFailureExit:
    def test_large_gamma_overflow_exit_4(self, tmp_path, capsys):
        doc = dict(BASE_CONFIG, cov={"mode": 1})
        doc["model"] = dict(BASE_CONFIG["model"], gamma=120.0)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "cov"]) == 4
        err = capsys.readouterr().err
        assert err == "numerical failure: Gram scale: Gamma(gamma)^2 with gamma = 120.0 overflows\n"

    @pytest.mark.parametrize("command", ["sample", "cov", "limits"])
    @pytest.mark.parametrize("model,term,outcome", [
        # lambda_8^beta = 64^400
        ({"beta": 400.0}, "decay rate lambda^beta", "overflows"),
        # every lambda_tilde^-alpha overflows
        ({"alpha": 100.0, "extents": 1000.0}, "weight lambda_tilde^-alpha", "overflows"),
        # every lambda^beta <= (8 pi / 1e4)^200 underflows
        ({"beta": 100.0, "extents": 1e4}, "decay rate lambda^beta", "underflows to 0"),
        # every lambda_tilde^-alpha <= (pi / 1e-3)^-200 underflows
        ({"alpha": 100.0, "extents": 1e-3}, "weight lambda_tilde^-alpha", "underflows to 0"),
    ], ids=["rate", "weight", "rate_underflow", "weight_underflow"])
    def test_overflowing_mode_exit_4_writes_nothing(self, tmp_path, capsys, model, term, outcome,
                                                    command):
        doc = dict(BASE_CONFIG, grid={"t_start": 0.0, "t_end": 1.0, "steps": 2},
                   cov={"mode": 8}, model=dict(BASE_CONFIG["model"], **model))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli(["--config", str(p), "--out", str(out), command]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: mode ") and f": {term} = " in err
        assert err.endswith(f" {outcome}\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,model,message", [
        # lambda_tilde_1^-100 ~ 1e500 in hs_sum's first term
        ("regularity", {"alpha": 100.0, "extents": 1000.0},
         "mode 1: spectral-sum term lambda^-1.0 lambda_tilde^-100.0 = "),
        # mu_1^(1 - 2 gamma) ~ 1e995 in the first stationary variance
        ("limits", {"gamma": 100.0, "extents": 1000.0},
         "stationary variance: mu^(1 - 2 gamma) with mu = 9.869604401089359e-06, gamma = 100.0"),
    ], ids=["hs_sum", "stationary_variance"])
    def test_overflow_names_its_term(self, tmp_path, capsys, command, model, message):
        doc = dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], **model))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        # a numpy RuntimeWarning on the way would fail the run (pyproject.toml)
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}") and err.endswith("overflows\n")
        assert err.count("\n") == 1


class TestNoAdaptiveCalls:
    """gram, the analysis functions and the CLI use the fixed lagged-integral
    rule only and never reach the adaptive quadrature behind mode_cov."""

    @pytest.fixture(autouse=True)
    def no_integrate(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(kernel, "integrate", explode)

    def test_gram(self):
        k = ModeKernel(mu=3.0, weight=1.0, gamma=1.3)
        for grid in (TimeGrid.uniform(0.0, 2.0, 8), TimeGrid(np.array([0.0, 0.3, 1.1, 2.0]))):
            G = gram(k, grid)
            assert np.all(np.isfinite(G)) and G[1, 2] > 0.0

    @pytest.mark.parametrize("command", ["sample", "cov", "holder"])
    def test_cli(self, tmp_path, command):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], gamma=1.3),
                                     cov={"mode": "field", "x": 1.0, "y": 2.0})))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), command]) == 0

    def test_analysis(self):
        model = model_from_dict(dict(BASE_CONFIG["model"], gamma=1.3))
        assert analysis.field_cov(model, 1.0, 1.5, 1.0, 2.0).value != 0.0
        k = mode_params(model, 1)
        assert analysis.estimate_holder(k, 5.0, [2.0 ** -6, 2.0 ** -8]).slope > 0.0
        assert analysis.separability_check(model).witness is not None
        separable = model_from_dict(dict(BASE_CONFIG["model"], beta=0.0, gamma=1.3))
        assert analysis.separability_check(separable).max_rel_error < 1e-12


class TestLimitsCommand:
    def test_tables(self, config_path, tmp_path):
        assert run_cli(["--config", config_path, "--out", str(tmp_path), "limits"]) == 0
        stat = (tmp_path / "limits_stationary.csv").read_text().strip().splitlines()
        assert abs(float(stat[1].split(",")[1]) - 0.5) < 1e-12
        temp = (tmp_path / "limits_temporal.csv").read_text().strip().splitlines()
        assert temp[0] == "h,matern_value"
        hs = [float(r.split(",")[0]) for r in temp[1:]]
        vals = [float(r.split(",")[1]) for r in temp[1:]]
        assert all(np.diff(vals) < 0.0)  # decreasing in lag
        assert len(hs) == 25

    def test_large_gamma_small_lag_finite(self, tmp_path):
        # Matern smoothness 120: K_120(1e-3) overflows, the covariance does not
        doc = {"model": dict(BASE_CONFIG["model"], gamma=120.5), "limits": {"lags": [1e-3, 0.5]}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "limits"]) == 0
        rows = (tmp_path / "limits_temporal.csv").read_text().strip().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert len(vals) == 2 and all(math.isfinite(v) and v > 0.0 for v in vals)

    def test_gamma_half_exit_3(self, tmp_path):
        doc = {"model": dict(BASE_CONFIG["model"], gamma=0.4)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "limits"]) == 3


class TestFiniteVarianceGate:
    """main refuses gamma <= 1/2 once, before any gated subcommand runs."""

    OUTPUTS = ("field.stwm", "sample_summary.csv", "cov.csv", "limits_stationary.csv",
               "limits_temporal.csv")

    def config(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], gamma=0.4))))
        return str(p)

    @pytest.mark.parametrize("command", ["sample", "cov", "limits", "holder"])
    def test_gated_command_exit_3_writes_nothing(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert run_cli(["--config", self.config(tmp_path), "--out", str(out), command]) == 3
        assert "model invalid" in capsys.readouterr().err
        assert not any((out / name).exists() for name in self.OUTPUTS)

    def test_basis_and_regularity_still_run(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["--config", self.config(tmp_path), "--out", str(out), "basis"]) == 0
        assert (out / "basis.csv").exists()
        capsys.readouterr()
        assert run_cli(["--config", self.config(tmp_path), "regularity"]) == 1
        assert json.loads(capsys.readouterr().out)["satisfied"] is False


class TestRegularityCommand:
    def test_satisfied_exit_0(self, config_path, capsys):
        assert run_cli(["--config", config_path, "regularity", "--tau", "0.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["satisfied"] is True
        assert set(doc["margins"]) == {"strict_gamma", "holder_gamma", "spectral"}

    def test_unsatisfied_exit_1(self, tmp_path, capsys):
        doc = {"model": dict(BASE_CONFIG["model"], alpha=0.0)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "regularity", "--tau", "0.3"]) == 1
        assert json.loads(capsys.readouterr().out)["satisfied"] is False

    def test_malformed_flags_exit_2(self, config_path):
        assert run_cli(["--config", config_path, "regularity", "--tau", "1.5"]) == 2
        for sigma in ("nan", "inf"):
            assert run_cli(["--config", config_path, "regularity", "--sigma", sigma]) == 2


class TestHolderCommand:
    def test_slope_report(self, config_path, capsys):
        assert run_cli(["--config", config_path, "holder", "--t0", "5",
                        "--lags", "2^-6..2^-12"]) == 0
        out = capsys.readouterr().out
        slope = float(out.splitlines()[0].split(":")[1])
        assert 0.95 <= slope <= 1.05
        assert "theory" in out

    def test_explicit_lag_list(self, config_path):
        assert run_cli(["--config", config_path, "holder", "--t0", "5",
                        "--lags", "0.015625,0.0078125,0.00390625"]) == 0

    def test_mode_index_out_of_range_exit_2(self, tmp_path, capsys):
        doc = dict(BASE_CONFIG, holder={"mode": 0})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "holder", "--t0", "5",
                        "--lags", "2^-6..2^-8"]) == 2
        assert "holder.mode" in capsys.readouterr().err

    def test_bad_lag_spec_exit_2(self, config_path):
        assert run_cli(["--config", config_path, "holder", "--lags", "fish..2^-3"]) == 2
        assert run_cli(["--config", config_path, "holder", "--lags", ""]) == 2
        assert run_cli(["--config", config_path, "holder", "--t0", "0.1",
                        "--lags", "2^-6..2^-8"]) == 2

    @pytest.mark.parametrize("lags", ["2^-2..2^-3000000", "2^0..2^-3", "2^-6..2^-1075"])
    def test_dyadic_exponent_out_of_range_exit_2(self, config_path, capsys, lags):
        # rejected before the range is allocated
        assert run_cli(["--config", config_path, "holder", "--lags", lags]) == 2
        assert "[-1074, -2]" in capsys.readouterr().err

    @pytest.mark.parametrize("t0", ["1e300", "nan", "inf"])
    def test_unusable_t0_exit_2(self, config_path, t0):
        assert run_cli(["--config", config_path, "holder", "--t0", t0]) == 2

    def test_increments_below_rounding_floor_exit_4(self, config_path, capsys):
        assert run_cli(["--config", config_path, "holder", "--lags", "2^-30..2^-45"]) == 4
        assert "numerical failure" in capsys.readouterr().err


class TestIntegerConfigFields:
    # each field with the override that sets it and the command that reads it
    FIELDS = {
        "cov.mode": (lambda v: {"cov": {"mode": v}}, ["cov"]),
        "holder.mode": (lambda v: {"holder": {"mode": v}},
                        ["holder", "--t0", "5", "--lags", "2^-6..2^-8"]),
        "grid.steps": (lambda v: {"grid": dict(BASE_CONFIG["grid"], steps=v)}, ["sample"]),
        "space.lattice": (lambda v: {"space": {"lattice": v}}, ["sample"]),
        "n_paths": (lambda v: {"n_paths": v}, ["sample"]),
        "seed": (lambda v: {"seed": v}, ["sample"]),
    }
    # each field's out-of-range value and the rule that rejects it
    RANGES = {
        "cov.mode": (9, "must be in [1, 8]"),
        "holder.mode": (0, "must be in [1, 8]"),
        "grid.steps": (0, "must be >= 1"),
        "space.lattice": (0, "must be >= 1"),
        "n_paths": (0, "must be >= 1"),
        "seed": (2 ** 64, "must be in [0, 2^64)"),
    }

    @pytest.mark.parametrize("bad", [2.7, True])
    @pytest.mark.parametrize("field", list(FIELDS))
    def test_non_integer_exit_2_names_field(self, tmp_path, capsys, field, bad):
        override, command = self.FIELDS[field]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, **override(bad))))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), *command]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "field.stwm").exists()
        assert not (tmp_path / "o" / "cov.csv").exists()

    @pytest.mark.parametrize("field", list(FIELDS))
    def test_out_of_range_exit_2_names_field(self, tmp_path, capsys, field):
        (override, command), (bad, rule) = self.FIELDS[field], self.RANGES[field]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, **override(bad))))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), *command]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config field '{field}': {rule}, got {bad}\n"
        assert not (tmp_path / "o").exists()

    def test_integral_float_accepted(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, cov={"mode": 2.0})))
        q = tmp_path / "d.json"
        q.write_text(json.dumps(dict(BASE_CONFIG, cov={"mode": 2})))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "a"), "cov"]) == 0
        assert run_cli(["--config", str(q), "--out", str(tmp_path / "b"), "cov"]) == 0
        assert (tmp_path / "a" / "cov.csv").read_text() == (tmp_path / "b" / "cov.csv").read_text()


class TestModelConfigFields:
    @pytest.mark.parametrize("field,bad", [("d", True), ("J", True), ("alpha", True),
                                           ("gamma", "1.5"), ("extents", "3")])
    def test_non_numeric_exit_2_names_field(self, tmp_path, capsys, field, bad):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], **{field: bad}))))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), "sample"]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "field.stwm").exists()


class TestRealConfigFields:
    # each real-valued field with the override that sets it and the command
    # that reads it
    FIELDS = {
        "grid.t_start": (lambda v: {"grid": dict(BASE_CONFIG["grid"], t_start=v)}, ["sample"]),
        "grid.t_end": (lambda v: {"grid": dict(BASE_CONFIG["grid"], t_end=v)}, ["sample"]),
        "space.points": (lambda v: {"space": {"points": [1.0, v]}}, ["sample"]),
        "cov.x": (lambda v: {"cov": {"mode": "field", "x": v}}, ["cov"]),
        "cov.y": (lambda v: {"cov": {"mode": "field", "x": 1.0, "y": v}}, ["cov"]),
        "limits.temporal_kappa": (lambda v: {"limits": {"temporal_kappa": v}}, ["limits"]),
        "limits.lags": (lambda v: {"limits": {"lags": [0.5, v]}}, ["limits"]),
    }
    OUTPUTS = ("field.stwm", "cov.csv", "limits_stationary.csv", "limits_temporal.csv")

    def run(self, tmp_path, doc, command):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        code = run_cli(["--config", str(p), "--out", str(tmp_path / "o"), *command])
        assert not any((tmp_path / "o" / name).exists() for name in self.OUTPUTS)
        return code

    @pytest.mark.parametrize("bad", ["1.0", True, math.nan])
    @pytest.mark.parametrize("field", list(FIELDS))
    def test_non_number_exit_2_names_field(self, tmp_path, capsys, field, bad):
        override, command = self.FIELDS[field]
        assert self.run(tmp_path, dict(BASE_CONFIG, **override(bad)), command) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,override,command", [
        pytest.param("space.points", {"space": {"points": 1.0}}, ["sample"], id="points-not-list"),
        pytest.param("limits.lags", {"limits": {"lags": "0.5"}}, ["limits"], id="lags-not-list"),
        pytest.param("limits.lags", {"limits": {"lags": [0.5, -0.5]}}, ["limits"],
                     id="lags-negative"),
        pytest.param("limits.lags", {"limits": {"lags": [[0.5]]}}, ["limits"], id="lags-nested"),
        pytest.param("limits.temporal_kappa", {"limits": {"temporal_kappa": 0.0}}, ["limits"],
                     id="kappa-zero"),
        pytest.param("holder", {"holder": 3}, ["holder"], id="holder-not-object"),
        pytest.param("grid", {"grid": None}, ["sample"], id="grid-missing"),
        pytest.param("grid", {"grid": {"t_start": 2.0, "t_end": 2.0, "steps": 4}}, ["sample"],
                     id="grid-empty"),
        pytest.param("space", {"space": None}, ["sample"], id="space-missing"),
        pytest.param("space", {"space": {"point": [1.0]}}, ["sample"], id="space-without-key"),
    ])
    def test_bad_shape_or_range_exit_2_names_field(self, tmp_path, capsys, field, override,
                                                    command):
        assert self.run(tmp_path, dict(BASE_CONFIG, **override), command) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_integral_numbers_accepted(self, tmp_path):
        doc = dict(BASE_CONFIG, grid={"t_start": 0, "t_end": 2, "steps": 4},
                   limits={"temporal_kappa": 1, "lags": [1, 0.5]})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        for command in ("sample", "limits"):
            assert run_cli(["--config", str(p), "--out", str(tmp_path), command]) == 0
        rows = (tmp_path / "limits_temporal.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "0.5"]


@pytest.mark.parametrize("override", [
    {"grid": dict(BASE_CONFIG["grid"], steps=10 ** 13)},
    {"n_paths": 10 ** 13},
    {"space": {"lattice": 10 ** 13}},
], ids=["grid.steps", "n_paths", "space.lattice"])
def test_refused_allocation_exit_4(tmp_path, override):
    # the address-space cap makes the request fail at once even on a host
    # that overcommits memory
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, **override)))
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 33, resource.RLIM_INFINITY)); "
            "from stwm import cli; sys.exit(cli.main(sys.argv[1:]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, "--config", str(p), "--out",
                           str(tmp_path / "o"), "sample"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 4
    assert proc.stderr.startswith("numerical failure: the host refused an allocation")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestFieldFile:
    def make_sample(self, n_paths=3, d=1):
        rng = np.random.default_rng(0)
        times = TimeGrid(np.array([0.0, 0.5, 1.25]))
        pts = np.array([[0.7], [1.1]]) if d == 1 else np.array([[0.7, 0.2], [1.1, 0.9]])
        values = rng.standard_normal((n_paths, 3, 2))
        values[:, 0, :] = 0.0
        return FieldSample(times=times, space_points=pts, values=values, seed_record=(1, 0))

    def test_round_trip_bit_exact(self, tmp_path):
        fs = self.make_sample()
        path = tmp_path / "f.stwm"
        write_field(path, fs)
        back = read_field(path)
        assert np.array_equal(back.values, fs.values)
        assert np.array_equal(back.times.points, fs.times.points)
        assert np.array_equal(back.space_points, fs.space_points)

    def test_read_arrays_read_only(self, tmp_path):
        fs = self.make_sample()
        path = tmp_path / "f.stwm"
        write_field(path, fs)
        back = read_field(path)
        for got, want in ((back.values, fs.values), (back.times.points, fs.times.points),
                          (back.space_points, fs.space_points)):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got.flat[0] = 1.0

    def test_round_trip_2d(self, tmp_path):
        fs = self.make_sample(d=2)
        path = tmp_path / "f.stwm"
        write_field(path, fs)
        back = read_field(path)
        assert back.space_points.shape == (2, 2)
        assert np.array_equal(back.values, fs.values)

    def test_magic_and_header(self, tmp_path):
        fs = self.make_sample()
        path = tmp_path / "f.stwm"
        write_field(path, fs)
        raw = path.read_bytes()
        assert raw[:4] == b"STWM"
        header = np.frombuffer(raw[4:24], dtype="<u4")
        assert list(header) == [1, 1, 3, 2, 3]  # version, d, n_times, n_points, n_paths

    def test_write_copies_no_array(self, tmp_path):
        fs = self.make_sample(n_paths=4000)
        tracemalloc.start()
        try:
            alive = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_field(tmp_path / "f.stwm", fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - alive < 0.5 * fs.values.nbytes
        assert read_field(tmp_path / "f.stwm").values.tobytes() == fs.values.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            read_field(path)

    def test_header_sizes_checked_against_file_size(self, tmp_path):
        path = tmp_path / "huge.stwm"
        path.write_bytes(b"STWM" + np.array([1, 1, 10 ** 6, 10 ** 6, 10 ** 6], dtype="<u4").tobytes())
        with pytest.raises(ValueError):
            read_field(path)
        write_field(path, self.make_sample())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_field(path)

    def test_csv_round_trip_precision(self, tmp_path):
        fs = self.make_sample()
        path = tmp_path / "f.csv"
        write_field_csv(path, fs)
        rows = path.read_text().strip().splitlines()
        assert rows[0].startswith("path,time,")
        cell = float(rows[2].split(",")[2])
        assert cell == fs.values[0, 1, 0]  # 17 significant digits round-trip


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("n", "x"), [(1, 0.1), (np.int64(2), 1.0 / 3.0)])
    lines = path.read_text().splitlines()
    assert lines[:2] == ["n,x", "1,0.10000000000000001"]
    n, x = lines[2].split(",")
    assert n == "2" and len(x.replace("0.", "", 1)) == 17 and float(x) == 1.0 / 3.0


def test_console_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "stwm.cli", "--help"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "basis" in proc.stdout and "regularity" in proc.stdout


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs the CLI memory and start-up time on every command;
    # only drawing a stream may load it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, stwm.cli; sys.exit('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr or "import stwm.cli loaded numpy.random"
