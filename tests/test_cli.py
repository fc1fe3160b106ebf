import contextlib
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stwm import analysis, cli, fieldfile, kernel, sampler
from stwm.fieldfile import (format_number, read_field, write_csv, write_field, write_field_chunks,
                            write_field_csv)
from stwm.kernel import ModeKernel, TimeGrid, gram, mode_cov
from stwm.sampler import FieldSample, SeedSpec, sample_field
from stwm.spectral import (SCHEMA, ConfigError, evaluate_basis, model_from_dict, model_from_json,
                           mode_params, weyl_ratio)

from reference import TIGHT, separability_check

PI = math.pi

BASE_CONFIG = {
    "model": {"d": 1, "extents": PI, "kappa2": 0.0, "kappa2_tilde": 0.0,
              "J": 8, "alpha": 1.0, "beta": 1.0, "gamma": 1.0, "T": 6.0},
    "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 4},
    "space": {"points": [1.0, PI / 2.0]},
    "n_paths": 48,
    "seed": 20240,
}
COMMANDS = ["basis", "sample", "cov", "limits", "regularity", "holder"]


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
        assert "'model.d'" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert run_cli(["--config", str(tmp_path / "nope.json"), "basis"]) == 2

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert run_cli(["--config", str(tmp_path), "basis"]) == 2
        assert capsys.readouterr().err == (f"config error: config field '--config': cannot read "
                                           f"{tmp_path}: Is a directory\n")

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

    def test_seed_flag_replaces_config_seed(self, tmp_path):
        # the run reads the flag's seed, not the config's, which is not checked
        runs = []
        for name, seed, flag in (("flag", "junk", ["--seed", "5"]), ("config", 5, [])):
            p, out = tmp_path / f"{name}.json", tmp_path / name
            p.write_text(json.dumps(dict(BASE_CONFIG, seed=seed)))
            assert run_cli(["--config", str(p), "--out", str(out), *flag, "sample"]) == 0
            runs.append((out / "field.stwm").read_bytes())
        assert runs[0] == runs[1]

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
        # a mode target takes no points x and y
        model_doc = dict(BASE_CONFIG["model"], J=16, gamma=gamma)
        cov = {"mode": target, "x": 0.9, "y": 2.3} if target == "field" else {"mode": target}
        doc = dict(BASE_CONFIG, model=model_doc, grid={"t_start": 0.0, "t_end": 2.0, "steps": 8},
                   cov=cov)
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
        build = kernel._gram_stack

        def counting_stack(*args):
            calls.append(len(args[1]))
            return build(*args)

        def no_gram(*args):
            raise AssertionError("per-mode gram called")

        monkeypatch.setattr(kernel, "_gram_stack", counting_stack)
        for module in (analysis, cli):  # the sampler imports no gram
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

    def test_resolved_field_target_reads_y_as_x(self):
        doc = dict(BASE_CONFIG, cov={"mode": "field", "x": 1.0})
        cfg = cli.resolved_config(doc, model_from_dict(doc), "cov")
        assert cfg["cov"] == {"mode": "field", "x": [1.0], "y": [1.0]}


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
        # every lambda^beta underflows and every lambda_tilde^-alpha
        # overflows: the rate is reported first
        ({"alpha": 100.0, "beta": 400.0, "extents": 1000.0}, "decay rate lambda^beta",
         "underflows to 0"),
    ], ids=["rate", "weight", "rate_underflow", "weight_underflow", "rate_before_weight"])
    def test_overflowing_mode_exit_4_writes_nothing(self, tmp_path, capsys, model, term, outcome,
                                                    command):
        # a one-point lattice lies inside every domain, also extents 1e-3
        doc = dict(BASE_CONFIG, grid={"t_start": 0.0, "t_end": 1.0, "steps": 2},
                   space={"lattice": 1}, cov={"mode": 8}, model=dict(BASE_CONFIG["model"], **model))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli(["--config", str(p), "--out", str(out), command]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: mode ") and f": {term} = " in err
        assert err.endswith(f" {outcome}\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["basis", "regularity"])
    def test_overflowing_mode_unread_exit_0(self, tmp_path, capsys, command):
        # lambda_8^beta = 64^400 overflows, but basis and regularity never
        # form a mode's rate or weight, and the model forms none when built
        doc = dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], beta=400.0))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command,section,model,message", [
        # lambda_tilde_1^-100 ~ 1e500 in hs_sum's first term
        ("regularity", {}, {"alpha": 100.0, "extents": 1000.0},
         "mode 1: spectral-sum term lambda^-1.0 lambda_tilde^-100.0 = "),
        # every term is finite and their sum is not
        ("regularity", {"regularity": {"n": 26}},
         {"kappa2": 1e6, "kappa2_tilde": 1e6, "J": 200, "alpha": 0.0},
         "spectral partial sum over 200 modes"),
        # mu_1^(1 - 2 gamma) ~ 1e995 in the first stationary variance
        ("limits", {}, {"gamma": 100.0, "extents": 1000.0},
         "stationary variance: w mu^(1 - 2 gamma) with w = 101321.18364233777, "
         "mu = 9.869604401089359e-06, gamma = 100.0"),
        # w = 1e198 and mu^(1 - 2 gamma) = 1e198 are finite, their product is not
        ("limits", {}, {"extents": 1e50, "alpha": 2.0, "gamma": 1.5},
         "stationary variance: w mu^(1 - 2 gamma) with w = 1.026598225468434e+198, "
         "mu = 9.869604401089356e-100, gamma = 1.5"),
        # the temporal Matern curve's variance at kappa = 2^-1022, formed
        # after the modes' stationary variances
        ("limits", {"limits": {"temporal_kappa": 2.0 ** -1022}}, {"gamma": 1.3},
         "stationary variance: w mu^(1 - 2 gamma) with w = 1.0, "
         "mu = 2.2250738585072014e-308, gamma = 1.3"),
        # beta gamma = 1e310 in the spectral margin and in hs_sum's exponents
        ("regularity", {}, {"beta": 1e10, "gamma": 1e300},
         "spectral-sum exponents: e1 = -inf or p = -inf"),
        # hs_sum's comparison exponent p = 4 (beta / 2 - beta - 1/2) = -3.4e308
        ("regularity", {}, {"beta": 1.7e308},
         "spectral-sum exponents: e1 = -1.7e+308 or p = -inf"),
        # p = 4 (... - alpha / 2) = -2e308 at alpha = 1e308
        ("regularity", {}, {"extents": 7.0, "kappa2": 1e308, "kappa2_tilde": 7.0, "J": 1,
                            "alpha": 1e308, "beta": 0.51, "gamma": 0.51},
         "spectral-sum exponents: e1 = -0.01020000000000001 or p = -inf"),
    ], ids=["hs_sum", "hs_sum_partial", "stationary_variance", "stationary_variance_product",
            "temporal_kappa", "beta_gamma", "spectral_exponent_beta",
            "spectral_exponent_alpha"])
    def test_overflow_names_its_term(self, tmp_path, capsys, command, section, model, message):
        doc = dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], **model), **section)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "o"
        # a numpy RuntimeWarning on the way would fail the run (pyproject.toml)
        assert run_cli(["--config", str(p), "--out", str(out), command]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}") and err.endswith("overflows\n")
        assert err.count("\n") == 1
        assert not out.exists()


    def test_doubled_beta_past_double_range_exit_0(self, tmp_path, capsys):
        # 2 beta = 3.4e308 overflows alone, but hs_sum's exponent
        # 2 beta (1/2 - gamma) = -3.4e306 does not: the terms past mode 1 and
        # the tail bound are 0, not nan
        doc = dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], beta=1.7e308, gamma=0.51))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), "regularity"]) == 0
        hs = json.loads(capsys.readouterr().out)["hs"]
        assert hs == {"partial": 1.0, "tail": 0.0, "diverges": False}

    @pytest.mark.parametrize("gamma", [1e8, 1e100])
    def test_matern_rule_past_cap_exit_4(self, tmp_path, capsys, gamma):
        # the temporal Matern curve of order gamma - 1/2 at lag 1e-2 needs a
        # K_nu rule of more than 2^18 steps: a named failure, not an allocation
        doc = dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], gamma=gamma))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), "limits"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: K_nu(x) at nu=") and err.count("\n") == 1
        assert "trapezoid rule needs" in err and not (tmp_path / "o").exists()

    def test_matern_order_past_range_exit_4_writes_nothing(self, tmp_path, capsys):
        # at order 1e100 both lags gave a silent 0: the log-space underflow
        # test rounds by far more than 1 there
        doc = dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], gamma=1e100),
                   limits={"lags": [0.01, 1.0]})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), "limits"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: K_nu(x) at nu=1e+100, x=0.01: ")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    # mode 1's Gram overflows: w = 3.2e298 and the grid runs to t = 1e12
    OVERFLOWING_GRAM = {
        "model": {"d": 1, "extents": 1e100, "kappa2": 0.0, "kappa2_tilde": 0.0, "J": 4,
                  "alpha": 1.5, "beta": 1.0, "gamma": 1.2, "T": 1e12},
        "grid": {"t_start": 0.0, "t_end": 1e12, "steps": 4},
        "space": {"points": [1e99]}, "n_paths": 3, "cov": {"mode": 1},
    }

    @pytest.mark.parametrize("command", ["cov", "sample"])
    def test_gram_scale_checked_before_variances(self, tmp_path, capsys, command):
        # at gamma = 1e100 the variances' incomplete-gamma sums near
        # 2 mu t = 2 gamma - 1 would need ~1e51 terms; Gamma(gamma)^2
        # overflows first
        doc = {"model": dict(BASE_CONFIG["model"], extents=1e-10, kappa2=7.0, J=3, alpha=2.0,
                             beta=0.0, gamma=1e100, T=1e100),
               "grid": {"t_start": 0.0, "t_end": 1e100, "steps": 2}, "space": {"lattice": 2}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 4
        err = capsys.readouterr().err
        assert err == ("numerical failure: Gram scale: Gamma(gamma)^2 with gamma = 1e+100 "
                       "overflows\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["cov", "sample", "holder"])
    def test_overflowing_gram_exit_4_writes_nothing(self, tmp_path, capsys, command):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(self.OVERFLOWING_GRAM, holder={"mode": 1, "t0": 1e11})))
        out = tmp_path / "o"
        # a numpy RuntimeWarning on the way would fail the run (pyproject.toml)
        assert run_cli(["--config", str(p), "--out", str(out), command]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Gram of the mode with mu = 9.869604401089358e-200, "
                              "w = 3.2251534433199492e+298, gamma = 1.2 overflows")
        assert err.count("\n") == 1
        assert not out.exists()


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
        assert separability_check(model).witness is not None
        separable = model_from_dict(dict(BASE_CONFIG["model"], beta=0.0, gamma=1.3))
        assert separability_check(separable).max_rel_error < 1e-12


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

    def test_overflowing_power_tiny_weight_exit_0(self, tmp_path, capsys):
        # mode 1: w = 1e-300 and mu^(1 - 2 gamma) ~ 1e320, whose product is
        # finite; 30-digit mpmath reference
        doc = {"model": dict(BASE_CONFIG["model"], extents=314159.27, kappa2_tilde=1e100,
                             J=4, alpha=3.0, gamma=16.5)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "--out", str(tmp_path), "limits"]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "limits_stationary.csv").read_text().strip().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert len(vals) == 4 and all(math.isfinite(v) for v in vals)
        assert abs(vals[0] / 7107679908891027438.896 - 1.0) < 1e-13

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


def write_config(tmp_path, **sections) -> str:
    """Path of BASE_CONFIG, with `sections` replacing its members, written to tmp_path."""
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, **sections)))
    return str(p)


def _strict_json(text: str):
    """JSON `text` parsed as a strict reader parses it: NaN and Infinity raise."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


# the spectral margin is +3.4e-17 over these doubles, where the float
# comparison exponent p rounds to exactly -1
BOUNDARY_MODEL = dict(BASE_CONFIG["model"], J=16, alpha=0.4600000000000001, beta=0.1, gamma=0.7)
# the spectral margin is -0.1: the spectral series diverges
DIVERGENT_MODEL = {"d": 2, "extents": [1.0, 1.0], "kappa2": 0.0, "kappa2_tilde": 0.0, "J": 16,
                   "alpha": 0.0, "beta": 1.0, "gamma": 0.9, "T": 1.0}


class TestRegularityCommand:
    def test_satisfied_exit_0(self, tmp_path, capsys):
        assert run_cli(["--config", write_config(tmp_path, regularity={"tau": 0.2}),
                        "regularity"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["satisfied"] is True
        assert set(doc["margins"]) == {"strict_gamma", "holder_gamma", "spectral"}

    def test_unsatisfied_exit_1(self, tmp_path, capsys):
        doc = {"model": dict(BASE_CONFIG["model"], alpha=0.0), "regularity": {"tau": 0.3}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["--config", str(p), "regularity"]) == 1
        assert json.loads(capsys.readouterr().out)["satisfied"] is False

    def test_malformed_flags_exit_2(self, tmp_path, capsys):
        # the values that were the --n, --tau and --sigma flags, now the section's
        for query, field in (({"tau": 1.5}, "regularity"), ({"n": -1}, "regularity"),
                             ({"sigma": -0.5}, "regularity"),
                             ({"sigma": math.nan}, "regularity.sigma"),
                             ({"sigma": math.inf}, "regularity.sigma"),
                             ({"n": 0.5}, "regularity.n"), ({"tau": "0.2"}, "regularity.tau")):
            assert run_cli(["--config", write_config(tmp_path, regularity=query),
                            "regularity"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: config field '{field}': ")
            assert err.count("\n") == 1

    def test_section_matches_defaults(self, tmp_path, capsys):
        # the defaults are n = 0, tau = 0, sigma = 0
        outs = []
        for query in ({}, {"n": 0, "tau": 0.0, "sigma": 0.0}):
            run_cli(["--config", write_config(tmp_path, regularity=query), "regularity"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and json.loads(outs[0])["satisfied"] is True

    def test_boundary_margin_decides_every_reader(self, tmp_path, capsys):
        # the exact margin's sign decides the report, its series, and the
        # sample gate alike: the series converges, with a finite tail
        path = write_config(tmp_path, model=BOUNDARY_MODEL)
        assert run_cli(["--config", path, "regularity"]) == 0
        report = _strict_json(capsys.readouterr().out)
        assert report["satisfied"] is True and report["margins"]["spectral"] > 0.0
        assert report["hs"]["diverges"] is False and math.isfinite(report["hs"]["tail"])
        assert run_cli(["--config", path, "--out", str(tmp_path / "o"), "sample"]) == 0

    def test_divergent_report_is_strict_json(self, tmp_path, capsys):
        assert run_cli(["--config", write_config(tmp_path, model=DIVERGENT_MODEL),
                        "regularity"]) == 1
        report = _strict_json(capsys.readouterr().out)
        assert report["satisfied"] is False and report["margins"]["spectral"] < 0.0
        assert report["hs"]["tail"] is None and report["hs"]["diverges"] is True


class TestHolderCommand:
    def test_slope_report(self, tmp_path, capsys):
        lags = [2.0 ** -e for e in range(6, 13)]
        assert run_cli(["--config", write_config(tmp_path, holder={"t0": 5, "lags": lags}),
                        "holder"]) == 0
        out = capsys.readouterr().out
        slope = float(out.splitlines()[0].split(":")[1])
        assert 0.95 <= slope <= 1.05
        assert "theory" in out
        # t0 = 5 and lags 2^-6..2^-12 are the defaults
        assert run_cli(["--config", write_config(tmp_path), "holder"]) == 0
        assert capsys.readouterr().out == out

    def test_explicit_lag_list(self, tmp_path):
        holder = {"t0": 5, "lags": [0.015625, 0.0078125, 0.00390625]}
        assert run_cli(["--config", write_config(tmp_path, holder=holder), "holder"]) == 0

    def test_mode_index_out_of_range_exit_2(self, tmp_path, capsys):
        holder = {"mode": 0, "t0": 5, "lags": [2.0 ** -6, 2.0 ** -7, 2.0 ** -8]}
        assert run_cli(["--config", write_config(tmp_path, holder=holder), "holder"]) == 2
        assert "holder.mode" in capsys.readouterr().err

    def test_bad_lag_spec_exit_2(self, tmp_path, capsys):
        for holder, field in (({"lags": "2^-6..2^-8"}, "holder.lags"),
                              ({"lags": []}, "holder.lags"),
                              ({"lags": [[0.25, 0.125]]}, "holder.lags"),
                              ({"lags": [0.5, 0.125]}, "holder.lags"),
                              ({"t0": 0.1, "lags": [2.0 ** -6, 2.0 ** -8]}, "holder.t0")):
            assert run_cli(["--config", write_config(tmp_path, holder=holder), "holder"]) == 2
            assert f"config field '{field}': " in capsys.readouterr().err

    @pytest.mark.parametrize("t0", [1e300, math.nan, math.inf], ids=["1e300", "nan", "inf"])
    def test_unusable_t0_exit_2(self, tmp_path, t0):
        assert run_cli(["--config", write_config(tmp_path, holder={"t0": t0}), "holder"]) == 2

    def test_t0_below_one_is_a_schema_bound(self, tmp_path, capsys):
        # refused as the section is read, before any Gram is built
        assert run_cli(["--config", write_config(tmp_path, holder={"t0": 0.5}), "holder"]) == 2
        assert capsys.readouterr() == ("", "config error: config field 'holder.t0': "
                                           "must be >= 1, got 0.5\n")

    def test_increments_below_rounding_floor_exit_4(self, tmp_path, capsys):
        holder = {"lags": [2.0 ** -e for e in range(30, 46)]}
        assert run_cli(["--config", write_config(tmp_path, holder=holder), "holder"]) == 4
        assert "numerical failure" in capsys.readouterr().err


class TestIntegerConfigFields:
    # each field with the override that sets it and the command that reads it
    FIELDS = {
        "cov.mode": (lambda v: {"cov": {"mode": v}}, ["cov"]),
        "holder.mode": (lambda v: {"holder": {"mode": v, "t0": 5,
                                              "lags": [2.0 ** -6, 2.0 ** -7, 2.0 ** -8]}},
                        ["holder"]),
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
        assert f"'model.{field}'" in capsys.readouterr().err
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
        "holder.t0": (lambda v: {"holder": {"t0": v}}, ["holder"]),
        "holder.lags": (lambda v: {"holder": {"lags": [0.125, v]}}, ["holder"]),
        "regularity.tau": (lambda v: {"regularity": {"tau": v}}, ["regularity"]),
        "regularity.sigma": (lambda v: {"regularity": {"sigma": v}}, ["regularity"]),
    }
    MODEL_2D = dict(BASE_CONFIG["model"], d=2, extents=[1.0, 2.0])
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
        pytest.param("regularity", {"regularity": [0.2]}, ["regularity"],
                     id="regularity-not-object"),
        pytest.param("holder.lags", {"holder": {"lags": 0.125}}, ["holder"],
                     id="holder-lags-not-list"),
        pytest.param("holder.lags", {"holder": {"lags": [0.125, [0.25]]}}, ["holder"],
                     id="holder-lags-nested"),
        # a 1-D point list that is empty, or a field point that is empty or two points
        pytest.param("space.points", {"space": {"points": []}}, ["sample"], id="points-empty"),
        pytest.param("cov.x", {"cov": {"mode": "field", "x": []}}, ["cov"], id="x-empty"),
        pytest.param("cov.y", {"cov": {"mode": "field", "x": 1.0, "y": []}}, ["cov"],
                     id="y-empty"),
        pytest.param("cov.x", {"cov": {"mode": "field", "x": [1.0, 2.0]}}, ["cov"],
                     id="x-two-points"),
        pytest.param("cov.x", {"cov": {"mode": "field", "x": 4.0}}, ["cov"], id="x-outside"),
        # a mode target reads no point: x or y beside one, good or bad
        pytest.param("cov.x", {"cov": {"mode": 2, "x": 1.0}}, ["cov"], id="x-beside-mode"),
        pytest.param("cov.y", {"cov": {"mode": 1, "y": 2.0}}, ["cov"], id="y-beside-mode"),
        pytest.param("cov.x", {"cov": {"mode": 2, "x": 1.0, "y": 2.0}}, ["cov"],
                     id="x-and-y-beside-mode"),
        pytest.param("cov.x", {"cov": {"mode": 2, "x": 99.0, "y": "junk"}}, ["cov"],
                     id="bad-x-and-y-beside-mode"),
        pytest.param("cov.y", {"cov": {"mode": 2, "y": "junk"}}, ["cov"], id="bad-y-beside-mode"),
        pytest.param("space.points", {"space": {"points": [1.0, 4.0]}}, ["sample"],
                     id="points-outside"),
        # 2-D points with the wrong number of coordinates, ragged or nested too deep
        pytest.param("cov.x", {"model": MODEL_2D, "cov": {"mode": "field", "x": [0.5]}}, ["cov"],
                     id="2d-x-one-coordinate"),
        pytest.param("cov.x", {"model": MODEL_2D,
                               "cov": {"mode": "field", "x": [[0.5, 0.5], [0.2, 0.2]]}}, ["cov"],
                     id="2d-x-two-points"),
        pytest.param("space.points", {"model": MODEL_2D, "space": {"points": [[0.5, 0.5, 0.5]]}},
                     ["sample"], id="2d-points-three-coordinates"),
        pytest.param("space.points", {"model": MODEL_2D, "space": {"points": [[0.5, 0.5], [0.2]]}},
                     ["sample"], id="2d-points-ragged"),
        pytest.param("space.points", {"model": MODEL_2D,
                                      "space": {"points": [[[0.5, 0.5]], [[0.2, 0.2]]]}},
                     ["sample"], id="2d-points-nested"),
        # the grid runs past the model horizon T = 1: sample and cov read it alike
        pytest.param("grid.t_end", {"model": dict(BASE_CONFIG["model"], T=1.0)}, ["sample"],
                     id="past-horizon-sample"),
        pytest.param("grid.t_end", {"model": dict(BASE_CONFIG["model"], T=1.0)}, ["cov"],
                     id="past-horizon-cov"),
        pytest.param("grid", {"grid": None}, ["sample"], id="grid-missing"),
        pytest.param("grid", {"grid": {"t_start": 2.0, "t_end": 2.0, "steps": 4}}, ["sample"],
                     id="grid-empty"),
        pytest.param("space", {"space": None}, ["sample"], id="space-missing"),
        pytest.param("space", {"space": {"point": [1.0]}}, ["sample"], id="space-without-key"),
        # positive extents outside the range in which build_basis forms eigenvalues
        pytest.param("model.extents", {"model": dict(BASE_CONFIG["model"], extents=1e-200)},
                     ["basis"], id="extents-tiny"),
        pytest.param("model.extents", {"model": dict(BASE_CONFIG["model"], extents=1e101)},
                     ["basis"], id="extents-huge"),
        # a grid before t = 0, and one whose span t_end - t_start overflows
        pytest.param("grid.t_start", {"grid": dict(BASE_CONFIG["grid"], t_start=-1.0)},
                     ["sample"], id="t-start-negative"),
        pytest.param("grid.t_start", {"model": dict(BASE_CONFIG["model"], T=1e308),
                                      "grid": {"t_start": -1e308, "t_end": 1e308, "steps": 2}},
                     ["cov"], id="grid-span-overflow"),
    ])
    def test_bad_shape_or_range_exit_2_names_field(self, tmp_path, capsys, field, override,
                                                    command):
        assert self.run(tmp_path, dict(BASE_CONFIG, **override), command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config field '{field}': ") and err.count("\n") == 1

    @pytest.mark.parametrize("field,text,command", [
        # json's decoder recurses per level; a RecursionError is invalid JSON
        ("--config", '{"model": ' + "[" * 100000 + "]" * 100000 + "}", "basis"),
        # decodes, and is read without recursion
        ("space.points", json.dumps(BASE_CONFIG)[:-1] + ', "space": {"points": '
         + "[" * 900 + "]" * 900 + "}}", "sample"),
    ], ids=["model", "space.points"])
    def test_deep_nesting_exit_2_names_field(self, tmp_path, capsys, field, text, command):
        p = tmp_path / "c.json"
        p.write_text(text)
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config field '{field}': ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_integral_numbers_accepted(self, tmp_path):
        doc = dict(BASE_CONFIG, grid={"t_start": 0, "t_end": 2, "steps": 4},
                   limits={"temporal_kappa": 1, "lags": [1, 0.5]})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        for command in ("sample", "limits"):
            assert run_cli(["--config", str(p), "--out", str(tmp_path), command]) == 0
        rows = (tmp_path / "limits_temporal.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "0.5"]


# config values of every JSON kind: numbers at 0 and at the edges of the
# double range, wrong types, and empty or nested lists
_NUMBERS = st.one_of(st.sampled_from([0, 0.0, -1.0, 5e-324, 1e-300, 2.0 ** -30, 0.125, 0.5, 1,
                                      2.0, 5.0, 1e11, 1e300, -1e300, 1.7e308, 10 ** 30]),
                     st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))
_LISTS = st.one_of(st.lists(_NUMBERS, max_size=4),
                   st.lists(st.lists(_NUMBERS, max_size=3), min_size=1, max_size=3))
_VALUES = st.one_of(_NUMBERS, _LISTS, st.sampled_from([None, True, "1.0", {}, [], [[]]]),
                    st.lists(st.lists(st.lists(_NUMBERS, max_size=2), max_size=2), max_size=2))


def _section_of(**members):
    """A config section with some of `members` (strategies), maybe an unknown
    member, or a value that is no JSON object."""
    return st.one_of(st.fixed_dictionaries({}, optional=dict(members, extra=_VALUES)), _VALUES)


# counts that are no count, and small ones: no generated J, grid.steps or
# space.lattice asks for more than a few MB (J of 1e11 or 10^30 is refused
# before anything is allocated)
_NOT_COUNTS = st.sampled_from([None, True, "1", 2.5, -1e300, 1e300, {}, [], [2]])
_COUNTS = st.one_of(st.integers(-1, 4), st.just(2.0), _NOT_COUNTS)
# the generated values of the optional sections' members, by SCHEMA path;
# the members' names come from SCHEMA
_SECTION_VALUES = {
    "cov.mode": st.one_of(st.just("field"), st.integers(0, 5), _VALUES),
    "cov.x": st.one_of(_NUMBERS, _LISTS, _VALUES),
    "cov.y": st.one_of(_NUMBERS, _LISTS, _VALUES),
    "limits.temporal_kappa": _VALUES,
    "limits.lags": st.one_of(_LISTS, _VALUES),
    "holder.mode": st.one_of(st.integers(0, 5), _VALUES),
    "holder.t0": _VALUES,
    "holder.lags": st.one_of(_LISTS, _VALUES),
    "regularity.n": st.one_of(st.integers(-1, 30), _VALUES),
    "regularity.tau": _VALUES,
    "regularity.sigma": _VALUES,
    "space.points": st.one_of(_LISTS, _VALUES),
    "space.lattice": _COUNTS,
}
_SECTIONS = st.fixed_dictionaries({}, optional={
    **{name: _section_of(**{key: _SECTION_VALUES[f"{name}.{key}"] for key in SCHEMA[name]})
       for name in ("cov", "limits", "holder", "regularity")},
    # a space holds one member
    "space": st.one_of(*(st.fixed_dictionaries({key: _SECTION_VALUES[f"space.{key}"]})
                         for key in SCHEMA["space"]), _VALUES),
})

# model and grid members: 0, wrong types and numbers at the edges of the
# double range and of the extents range
_EDGES = st.sampled_from([0, 0.0, -1.0, 5e-324, 1e-300, 1e-200, 1e-100, 0.5, 2.0, 1e100, 1e101,
                          1e300, -1e300, 1e308, -1e308, 1.7e308, -1.7e308])
_REALS = st.one_of(_EDGES, st.floats(-10.0, 10.0), st.sampled_from([None, True, "1.0", [], [1.0]]))
# the model's and the grid's members, from SCHEMA, with their generated values:
# counts for integers and _REALS for reals, except where named
_SPECIAL_VALUES = {
    "model.d": st.one_of(st.integers(0, 3), _NOT_COUNTS),
    "model.J": st.one_of(_COUNTS, st.sampled_from([1e11, 10 ** 30])),
    "model.extents": st.one_of(_REALS, st.lists(st.one_of(_EDGES, st.floats(0.1, 10.0)),
                                                min_size=1, max_size=3)),
}
_MODEL_MEMBERS, _GRID_MEMBERS = ({
    key: _SPECIAL_VALUES.get(f"{name}.{key}", _COUNTS if kind == "integer" else _REALS)
    for key, (kind, *_) in SCHEMA[name].items()} for name in ("model", "grid"))


def _tiny_run(d=1, J=2, steps=2, gamma=1.3, **sections) -> dict:
    model = {"d": d, "extents": PI if d == 1 else [1.0, 2.0], "kappa2": 0.0,
             "kappa2_tilde": 0.5, "J": J, "alpha": 1.0, "beta": 1.0, "gamma": gamma, "T": 1.0}
    return dict({"model": model, "grid": {"t_start": 0.0, "t_end": 1.0, "steps": steps},
                 "space": {"lattice": 2}, "n_paths": 3, "seed": 7}, **sections)


@st.composite
def _model_and_grid(draw) -> dict:
    """A tiny run whose model and grid each have up to two members replaced
    by a generated value or dropped, and maybe an unknown member."""
    doc = _tiny_run(d=draw(st.sampled_from([1, 2])))
    for section, members in ((doc["model"], _MODEL_MEMBERS), (doc["grid"], _GRID_MEMBERS)):
        for name in draw(st.lists(st.sampled_from(list(members)), max_size=2, unique=True)):
            section[name] = draw(members[name])
        if draw(st.integers(0, 3)) == 0:  # about one section in four
            del section[draw(st.sampled_from(list(members)))]
        if draw(st.integers(0, 3)) == 0:
            section["extra"] = draw(_VALUES)
    return doc


def _finite_numbers_written(out: Path, stdout: str) -> bool:
    """Whether the field files under `out` hold only finite values and no
    non-finite number, as format_number or a JSON report writes one, appears
    in the CSV files under `out` or in `stdout`."""
    texts = [stdout] + [f.read_text() for f in out.glob("*.csv")]
    return (all(np.all(np.isfinite(read_field(f).values)) for f in out.glob("*.stwm"))
            and not any(re.search(r"\b(inf|nan|Infinity|NaN)\b", text) for text in texts))


class TestUnknownMembers:
    """A member outside the README schema is a config error for every
    command, reported before any other defect: exit 2, one line naming the
    member, nothing written."""

    @pytest.mark.parametrize("override,field", [
        ({"holder": {"lag": [0.01, 0.02]}}, "holder.lag"),
        ({"note": "run 1"}, "note"),
        ({"grid": dict(BASE_CONFIG["grid"], step=4)}, "grid.step"),
        ({"cov": {"mode": 1, "z": 1.0}}, "cov.z"),
        ({"limits": {"lag": [0.1]}}, "limits.lag"),
        ({"regularity": {"t": 0.1}}, "regularity.t"),
        ({"model": dict(BASE_CONFIG["model"], gama=1.2)}, "model.gama"),
        ({"model": dict(BASE_CONFIG["model"], d=3), "holder": {"mode": 1, "lag": 1}},
         "holder.lag"),
    ], ids=["holder", "top-level", "grid", "cov", "limits", "regularity", "model",
            "before-bad-model"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exit_2_names_member(self, tmp_path, capsys, override, field, command):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, **override)))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 2
        assert capsys.readouterr().err == f"config error: config field '{field}': unknown member\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("space", [{"points": [1.0], "lattice": 2}, {}, {"lattice": 2, "n": 1}],
                             ids=["both", "empty", "extra"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_space_holds_one_member(self, tmp_path, capsys, space, command):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, space=space)))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 2
        assert capsys.readouterr().err == ("config error: config field 'space': must hold one "
                                           "member, 'points' or 'lattice'\n")
        assert not (tmp_path / "o").exists()


class TestSectionShapes:
    """A present section that is not a JSON object, or a space that is not an
    object of one member, is a config error for every command, also one that
    does not read it: exit 2, one line naming the section, nothing written.
    Unknown members are reported first."""

    @pytest.mark.parametrize("override,message", [
        ({"grid": 5}, "'grid': must be a JSON object"),
        ({"cov": 5}, "'cov': must be a JSON object"),
        ({"limits": []}, "'limits': must be a JSON object"),
        ({"holder": [1]}, "'holder': must be a JSON object"),
        ({"regularity": None}, "'regularity': must be a JSON object"),
        ({"space": 5}, "'space': must hold one member, 'points' or 'lattice'"),
        ({"cov": 5, "holder": {"mode": 1, "lag": 1}}, "'holder.lag': unknown member"),
    ], ids=["grid", "cov", "limits", "holder", "regularity", "space", "unknown-member-first"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exit_2_names_section(self, tmp_path, capsys, override, message, command):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(BASE_CONFIG, **override)))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 2
        assert capsys.readouterr().err == f"config error: config field {message}\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override,message", [
    ({"holder": {"lag": [0.1]}, "bogus": 1}, "'bogus': unknown member"),
    ({"holder": {"lag": [0.1]}}, "'holder.lag': unknown member"),
    ({"holder": [1]}, "'holder': must be a JSON object"),
    ({"space": {"points": [1.0], "lattice": 2}},
     "'space': must hold one member, 'points' or 'lattice'"),
], ids=["top-level", "section-member", "section", "space"])
def test_library_refuses_what_the_cli_refuses(tmp_path, capsys, override, message):
    # model_from_dict and model_from_json check a run configuration's shape
    # as `stwm --config` does, with the same message
    doc = dict(BASE_CONFIG, **override)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), "basis"]) == 2
    assert capsys.readouterr().err == f"config error: config field {message}\n"
    for read in (lambda: model_from_dict(doc), lambda: model_from_json(p)):
        with pytest.raises(ConfigError) as info:
            read()
        assert str(info.value) == f"config field {message}"


class TestGeneratedConfigs:
    """Generated configs on a tiny model: every run ends in an exit code of
    the contract (0-4) with no exception or warning, a run that exits 0
    writes and prints only finite numbers, and one that exits 2, 3 or 4
    prints one line with the code's prefix (exit 2: a config error naming
    its field) and writes nothing."""

    PREFIXES = {2: "config error: config field '", 3: "model invalid: ", 4: "numerical failure: "}

    def check_contract(self, doc: dict, command: str):
        # a generated member named "extra" is unknown wherever it is added,
        # and is refused before any other defect
        unknown = [f"{name}.extra" for name, section in doc.items()
                   if isinstance(section, dict) and "extra" in section]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "c.json", Path(tmp) / "o"
            path.write_text(json.dumps(doc))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(["--config", str(path), "--out", str(out), command])
            assert code in (0, 1, 2, 3, 4)
            if unknown:
                assert code == 2 and stderr.getvalue() in [
                    f"config error: config field '{field}': unknown member\n" for field in unknown]
            if code == 0:
                assert _finite_numbers_written(out, stdout.getvalue())
            elif code != 1:  # one line, and nothing written
                err = stderr.getvalue()
                assert err.startswith(self.PREFIXES[code]) and err.count("\n") == 1, err
                assert not out.exists()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sections=_SECTIONS, d=st.sampled_from([1, 2]), J=st.integers(1, 4),
           steps=st.integers(1, 2), gamma=st.sampled_from([0.75, 1.3, 2.5]),
           command=st.sampled_from(["sample", "cov", "limits", "holder", "regularity"]))
    def test_exit_code_in_contract(self, sections, d, J, steps, gamma, command):
        self.check_contract(_tiny_run(d, J, steps, gamma, **sections), command)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(doc=_model_and_grid(),
           command=st.sampled_from(["sample", "cov", "limits", "holder", "regularity", "basis"]))
    @example(doc=_tiny_run(model=dict(_tiny_run()["model"], extents=1e-200)), command="basis")
    @example(doc=_tiny_run(model=dict(_tiny_run()["model"], T=1e308),
                           grid={"t_start": -1e308, "t_end": 1e308, "steps": 2}), command="cov")
    def test_model_and_grid_exit_code_in_contract(self, doc, command):
        self.check_contract(doc, command)


@pytest.mark.parametrize("n_paths", [2 ** 32, 10 ** 13])
def test_n_paths_past_the_header_exit_2_writes_nothing(tmp_path, capsys, n_paths):
    # the field file stores n_paths as a u32; sampling streams, so nothing
    # else would refuse such a run before its output exists
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, n_paths=n_paths)))
    assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), "sample"]) == 2
    assert capsys.readouterr().err == ("config error: config field 'n_paths': must be below "
                                       f"2^32, the field file's limit, got {n_paths}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override", [
    {"grid": dict(BASE_CONFIG["grid"], steps=10 ** 13)},
    {"space": {"lattice": 10 ** 13}},
], ids=["grid.steps", "space.lattice"])
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


# the sample_1d_streams benchmark shape: 64 modes on (0, pi), 3 times, 32 points
STREAM_CONFIG = {
    "model": {"d": 1, "extents": PI, "kappa2": 0.0, "kappa2_tilde": 0.0,
              "J": 64, "alpha": 1.0, "beta": 1.0, "gamma": 1.2, "T": 5.0},
    "grid": {"t_start": 0.0, "t_end": 5.0, "steps": 2},
    "space": {"lattice": 32},
    "seed": 4,
}


class TestStreamedSample:
    """stwm sample writes its field one chunk of 256-path blocks at a time."""

    def run(self, tmp_path, doc, name="o"):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["--config", str(p), "--out", str(tmp_path / name), "sample"]) == 0
        return tmp_path / name

    def library_file(self, tmp_path, doc):
        model = model_from_dict(doc)
        g = doc["grid"]
        fs = sample_field(model, TimeGrid.uniform(g["t_start"], g["t_end"], g["steps"]),
                          doc["space"]["points"], doc["n_paths"], SeedSpec(doc["seed"]))
        write_field(tmp_path / "lib.stwm", fs)
        return (tmp_path / "lib.stwm").read_bytes()

    @pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 600])
    def test_field_file_equals_write_field(self, tmp_path, n_paths):
        doc = dict(BASE_CONFIG, n_paths=n_paths)
        out = self.run(tmp_path, doc)
        assert (out / "field.stwm").read_bytes() == self.library_file(tmp_path, doc)

    def test_long_grid_several_chunks_equal_write_field(self, tmp_path):
        # 301 times: chunks of 512 paths, so 1,100 paths make three, and
        # the factors are held from the first chunk to the others
        doc = dict(BASE_CONFIG, model=dict(BASE_CONFIG["model"], J=3),
                   grid={"t_start": 0.0, "t_end": 2.0, "steps": 300}, n_paths=1100)
        assert sampler._stream_chunk(301, 1100) == 512
        out = self.run(tmp_path, doc)
        assert (out / "field.stwm").read_bytes() == self.library_file(tmp_path, doc)

    def test_peak_memory_does_not_grow_with_n_paths(self, tmp_path):
        # one 256-path chunk's mode and field values: 256 * 3 * (64 + 32) doubles
        chunk_bytes = 256 * 3 * (64 + 32) * 8
        self.run(tmp_path, dict(STREAM_CONFIG, n_paths=512), "warm")  # numpy.random loads lazily
        peaks = []
        tracemalloc.start()
        try:
            for n_paths in (512, 8192):
                tracemalloc.reset_peak()
                alive = tracemalloc.get_traced_memory()[0]
                self.run(tmp_path, dict(STREAM_CONFIG, n_paths=n_paths), f"o{n_paths}")
                peaks.append(tracemalloc.get_traced_memory()[1] - alive)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < chunk_bytes, peaks

    def test_summary_matches_whole_array_moments(self, tmp_path):
        out = self.run(tmp_path, dict(STREAM_CONFIG, n_paths=1000))
        values = read_field(out / "field.stwm").values.swapaxes(0, 1).reshape(3, -1)
        rows = np.loadtxt(out / "sample_summary.csv", delimiter=",", skiprows=1)
        want_var = values.var(axis=1, ddof=1)
        np.testing.assert_allclose(rows[:, 2], want_var, rtol=1e-12, atol=0.0)
        # a mean near 0 has no relative accuracy: the scale of its rounding
        # is the mean of |v|
        scale = np.abs(values).mean(axis=1)
        assert np.all(np.abs(rows[:, 1] - values.mean(axis=1)) <= 1e-12 * scale)
        assert rows[0, 1] == 0.0 and rows[0, 2] == 0.0  # t = 0

    @pytest.mark.parametrize("command", ["sample", "cov", "basis", "limits"])
    def test_out_that_cannot_be_created_exit_2(self, tmp_path, capsys, config_path, command):
        (tmp_path / "notadir").write_text("")
        assert run_cli(["--config", config_path, "--out", str(tmp_path / "notadir" / "o"),
                        command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config field '--out': cannot write ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert (tmp_path / "notadir").read_text() == ""

    def test_unfinished_field_file_removed(self, tmp_path, capsys, monkeypatch):
        # the file system fails after the first chunk: no partial field file
        real = cli.sample_field_chunks

        def failing(*args):
            yield next(real(*args))
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "sample_field_chunks", failing)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(STREAM_CONFIG, n_paths=600)))
        assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), "sample"]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: config field '--out': cannot write {tmp_path / 'o'}: "
                       "No space left on device\n")
        assert list((tmp_path / "o").iterdir()) == []

    def test_rerun_into_a_longer_output_equals_a_fresh_run(self, tmp_path):
        # 600 paths, then 257 into the same --out: every output is cut to the
        # bytes of a fresh 257-path run, in the same inodes
        fresh = self.run(tmp_path, dict(STREAM_CONFIG, n_paths=257), "fresh")
        out = self.run(tmp_path, dict(STREAM_CONFIG, n_paths=600))
        names = ("field.stwm", "sample_summary.csv")
        inodes = [os.stat(out / name).st_ino for name in names]
        self.run(tmp_path, dict(STREAM_CONFIG, n_paths=257))
        for name, inode in zip(names, inodes):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
            assert os.stat(out / name).st_ino == inode, name


def _patch(offset: int, data: bytes):
    """Field-file mutation that overwrites the bytes at `offset` with `data`."""
    return lambda raw: raw[:offset] + data + raw[offset + len(data):]


def _cut(end: int):
    """Field-file mutation that truncates the file to `end` bytes."""
    return lambda raw: raw[:end]


class TestFieldFile:
    def make_sample(self, n_paths=3, d=1):
        rng = np.random.default_rng(0)
        times = TimeGrid(np.array([0.0, 0.5, 1.25]))
        pts = np.array([[0.7], [1.1]]) if d == 1 else np.array([[0.7, 0.2], [1.1, 0.9]])
        values = rng.standard_normal((n_paths, 3, 2))
        values[:, 0, :] = 0.0
        return FieldSample(times=times, space_points=pts, values=values)

    def test_round_trip_bit_exact(self, tmp_path):
        fs = self.make_sample()
        path = tmp_path / "f.stwm"
        write_field(path, fs)
        back = read_field(path)
        assert np.array_equal(back.values, fs.values)
        assert np.array_equal(back.times.points, fs.times.points)
        assert np.array_equal(back.space_points, fs.space_points)

    def test_sample_round_trip_keeps_every_field(self, tmp_path):
        # a FieldSample holds only what the file stores
        model = model_from_dict(BASE_CONFIG)
        fs = sample_field(model, TimeGrid.uniform(0.0, 2.0, 4), [1.0, PI / 2.0], 5, SeedSpec(9))
        write_field(tmp_path / "f.stwm", fs)
        back = read_field(tmp_path / "f.stwm")
        for field in dataclasses.fields(FieldSample):
            a, b = getattr(fs, field.name), getattr(back, field.name)
            if isinstance(a, TimeGrid):
                a, b = a.points, b.points
            assert np.array_equal(a, b), field.name

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

    @pytest.mark.parametrize("header,message", [
        (b"STWM" + b"\x00" * 8, r"header is truncated \(12 bytes\)"),
        (b"STWM" + np.array([99, 1, 1, 1, 1], dtype="<u4").tobytes(),
         "unsupported field file version 99"),
    ], ids=["truncated", "version"])
    def test_bad_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "f.stwm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=message):
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

    # defects of make_sample()'s file: 3 paths, 3 times (0, 0.5, 1.25), 2
    # points, d = 1, so values at bytes 24-167, times at 168-191, points at 192-207
    MUTATIONS = {
        "magic": _patch(0, b"STWX"),
        **{f"{name}={value}": _patch(4 + 4 * i, struct.pack("<I", value))
           for i, name in enumerate(("version", "d", "n_times", "n_points", "n_paths"))
           for value in (0, 1, 2 ** 32 - 1)},
        **{f"truncated-at-{end}": _cut(end) for end in (0, 4, 24, 168, 192)},
        "extra-byte": lambda raw: raw + b"\0",
        "value-nan": _patch(64, struct.pack("<d", math.nan)),
        "value-inf": _patch(64, struct.pack("<d", math.inf)),
        "time-nan": _patch(176, struct.pack("<d", math.nan)),
        "times-not-increasing": _patch(184, struct.pack("<d", 0.5)),
    }

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_mutated_file_refused_or_read_as_stored(self, tmp_path, mutation):
        path = tmp_path / "f.stwm"
        write_field(path, self.make_sample())
        raw = self.MUTATIONS[mutation](path.read_bytes())
        path.write_bytes(raw)
        try:
            back = read_field(path)
        except ValueError:  # any other exception fails the test
            return
        d, n_times, n_points, n_paths = struct.unpack("<4I", raw[8:24])
        assert back.values.shape == (n_paths, n_times, n_points)
        assert back.space_points.shape == (n_points, d) and back.times.n == n_times
        assert raw[24:] == b"".join(a.tobytes() for a in (back.values, back.times.points,
                                                         back.space_points))

    def test_chunks_written_as_one_sample(self, tmp_path):
        fs = self.make_sample(n_paths=5)
        parts = [FieldSample(fs.times, fs.space_points, fs.values[a:b]) for a, b in ((0, 2), (2, 5))]
        write_field_chunks(tmp_path / "c.stwm", 5, iter(parts))
        write_field(tmp_path / "f.stwm", fs)
        assert (tmp_path / "c.stwm").read_bytes() == (tmp_path / "f.stwm").read_bytes()

    def test_sizes_past_the_header_refused_before_opening(self, tmp_path):
        with pytest.raises(ValueError, match="below 2\\^32"):
            write_field_chunks(tmp_path / "f.stwm", 2 ** 32, [self.make_sample()])
        assert not (tmp_path / "f.stwm").exists()

    @pytest.mark.parametrize("defect", ["fewer paths", "more paths", "other grid", "raises"])
    def test_unfinished_write_removes_the_file(self, tmp_path, defect):
        fs = self.make_sample()
        other = FieldSample(TimeGrid(np.array([0.0, 0.5, 1.5])), fs.space_points, fs.values)

        def raising():
            yield fs
            raise KeyboardInterrupt

        n_paths, chunks, error = {
            "fewer paths": (4, [fs], ValueError), "more paths": (5, [fs, fs], ValueError),
            "other grid": (6, [fs, other], ValueError), "raises": (6, raising(), KeyboardInterrupt),
        }[defect]
        path = tmp_path / "f.stwm"
        path.write_bytes(b"an older file")
        with pytest.raises(error):
            write_field_chunks(path, n_paths, chunks)
        assert not path.exists()

    def test_overwrite_equals_a_fresh_write_in_place(self, tmp_path):
        # a longer older file is overwritten in its inode and cut: the bytes
        # are those of a fresh write
        write_field(tmp_path / "fresh.stwm", self.make_sample(n_paths=2))
        path = tmp_path / "f.stwm"
        write_field(path, self.make_sample(n_paths=5))
        inode = os.stat(path).st_ino
        write_field(path, self.make_sample(n_paths=2))
        assert path.read_bytes() == (tmp_path / "fresh.stwm").read_bytes()
        assert os.stat(path).st_ino == inode

    def test_opener_cuts_only_at_the_end(self, tmp_path):
        # the older bytes past the position stay until the body ends
        path = tmp_path / "f.bin"
        path.write_bytes(b"0123456789")
        with fieldfile._overwrite(path) as fh:
            fh.write(b"abc")
            fh.flush()
            assert path.read_bytes() == b"abc3456789"
        assert path.read_bytes() == b"abc"

    def test_csv_overwrite_equals_a_fresh_write_in_place(self, tmp_path):
        rows = [(1, 0.5), (2, 1.0 / 3.0)]
        write_csv(tmp_path / "fresh.csv", ("n", "x"), rows)
        path = tmp_path / "t.csv"
        write_csv(path, ("n", "x"), rows * 50)
        inode = os.stat(path).st_ino
        write_csv(path, ("n", "x"), rows)
        assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert os.stat(path).st_ino == inode

    @pytest.mark.parametrize("older", [None, b"an older file"], ids=["absent", "older"])
    def test_csv_rows_that_raise_remove_the_file(self, tmp_path, older):
        def rows():
            yield 1, 0.5
            yield 2, 0.25
            raise ArithmeticError("row 3")

        path = tmp_path / "t.csv"
        if older is not None:
            path.write_bytes(older)
        with pytest.raises(ArithmeticError, match="row 3"):
            write_csv(path, ("n", "x"), rows())
        assert not path.exists()

    def test_killed_field_write_is_refused(self, tmp_path, monkeypatch):
        # a write stopped after its first chunk with no cleanup (a killed
        # process) over an older file of the same sizes: the header is
        # written last, so the file holds no magic and read_field refuses it
        fs = self.make_sample(n_paths=4)
        path = tmp_path / "f.stwm"
        write_field(path, FieldSample(fs.times, fs.space_points, fs.values + 1.0))

        def stopped():
            yield FieldSample(fs.times, fs.space_points, fs.values[:2])
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "remove", lambda p: None)
        with pytest.raises(KeyboardInterrupt):
            write_field_chunks(path, 4, stopped())
        assert path.stat().st_size == 24 + 8 * (4 * 3 * 2 + 3 + 2)
        with pytest.raises(ValueError, match="bad magic"):
            read_field(path)

    def test_killed_csv_write_holds_no_older_rows(self, tmp_path, monkeypatch):
        # a CSV is truncated when opened: a write stopped with no cleanup
        # leaves the new rows only, never an older file's tail after them
        path = tmp_path / "t.csv"
        write_csv(path, ("n", "x"), [(9, 9.5)] * 20)

        def rows():
            yield 1, 0.5
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "remove", lambda p: None)
        with pytest.raises(KeyboardInterrupt):
            write_csv(path, ("n", "x"), rows())
        assert path.read_text() == "n,x\n1,0.5\n"

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
    @pytest.mark.parametrize("kind", ["csv", "field"])
    def test_unfinished_write_through_a_symlink_keeps_the_link(self, tmp_path, kind):
        # only a path that names the file itself is removed: a symlink (or
        # an alias such as /dev/stdout) stays, and its target holds no
        # finished output
        fs = self.make_sample(n_paths=4)
        target, link = tmp_path / "target", tmp_path / "link"
        write_field(target, fs)
        link.symlink_to(target)

        def stopped(first):
            yield first
            raise ArithmeticError("stopped")

        with pytest.raises(ArithmeticError, match="stopped"):
            if kind == "csv":
                write_csv(link, ("n", "x"), stopped((1, 0.5)))
            else:
                write_field_chunks(link, 4, stopped(FieldSample(fs.times, fs.space_points,
                                                                fs.values[:2])))
        assert link.is_symlink() and target.exists()
        if kind == "csv":
            assert target.read_text() == "n,x\n1,0.5\n"
        else:
            with pytest.raises(ValueError, match="bad magic"):
                read_field(target)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("kind", ["csv", "failing csv", "field"])
    def test_pipe_output_neither_cut_nor_removed(self, tmp_path, kind):
        # a pipe cannot be cut or seek: it is written as a stream (a field
        # file header first), and a write that does not finish leaves it in
        # place. The read end is opened first, so no open blocks.
        def rows():
            yield 1, 0.5
            if kind == "failing csv":
                raise ArithmeticError("row 2")

        fs = self.make_sample()
        path = tmp_path / "pipe"
        os.mkfifo(path)
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(ArithmeticError) if kind == "failing csv" else contextlib.nullcontext():
                if kind == "field":
                    write_field(path, fs)
                else:
                    write_csv(path, ("n", "x"), rows())
            got = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
        finally:
            os.close(fd)
        if kind == "field":
            write_field(tmp_path / "f.stwm", fs)
            assert got == (tmp_path / "f.stwm").read_bytes()
        else:
            assert got == b"n,x\n1,0.5\n"
        assert path.exists()

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


@pytest.mark.parametrize("argv", [["regularity", "--n", "1"], ["regularity", "--tau", "0.2"],
                                  ["regularity", "--sigma", "0.5"], ["holder", "--t0", "5"],
                                  ["holder", "--lags", "2^-6..2^-12"]])
def test_subcommands_take_no_options(config_path, capsys, argv):
    # their inputs are the regularity and holder config sections
    with pytest.raises(SystemExit) as exc:
        run_cli(["--config", config_path, *argv])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["samples"], ["basis", "cov"]],
                         ids=["missing", "unknown", "two"])
def test_one_known_command_required(config_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--config", config_path, *argv])
    assert exc.value.code == 2 and "stwm: error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--seed", str(2 ** 64)),
                                        ("--threads", "0")],
                         ids=["seed-negative", "seed-2^64", "threads-zero"])
@pytest.mark.parametrize("command", COMMANDS)
def test_global_flag_out_of_range_exit_2(config_path, tmp_path, capsys, command, flag, value):
    # every command checks --seed and --threads, before it reads the config
    assert run_cli(["--config", config_path, "--out", str(tmp_path / "o"), flag, value,
                    command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field '{flag}': ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_flags_may_follow_the_command(config_path, tmp_path, capsys, command):
    runs = []
    for out, argv in ((tmp_path / "a", ["--config", config_path, "--seed", "5", command]),
                      (tmp_path / "b", [command, "--seed", "5", "--config", config_path])):
        code = run_cli([*argv, "--out", str(out)])
        runs.append((code, {f.name: f.read_bytes() for f in out.glob("*")},
                     capsys.readouterr().out.replace(str(out), "<out>")))
    assert runs[0] == runs[1] and runs[0][0] in (0, 1)


@pytest.mark.parametrize("command", ["basis", "regularity", "limits", "holder"])
def test_bare_model_document_runs_as_a_run_config(tmp_path, capsys, command):
    # a bare model document is accepted anywhere a run configuration is
    runs = []
    for name, doc in (("bare", BASE_CONFIG["model"]), ("run", {"model": BASE_CONFIG["model"]})):
        p, out = tmp_path / f"{name}.json", tmp_path / name
        p.write_text(json.dumps(doc))
        code = run_cli(["--config", str(p), "--out", str(out), command])
        runs.append((code, {f.name: f.read_bytes() for f in out.glob("*")},
                     capsys.readouterr().out.replace(str(out), "<out>")))
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("command", ["sample", "cov"])
def test_bare_model_document_has_no_grid(tmp_path, capsys, command):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(BASE_CONFIG["model"]))
    assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 2
    assert capsys.readouterr().err == ("config error: config field 'grid': missing grid spec "
                                       "{t_start, t_end, steps}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid,message", [
    ({"t_start": 0.0, "steps": 2}, "config field 'grid.t_end': missing"),
    ({"t_start": 0.0, "t_end": None, "steps": 2},
     "config field 'grid.t_end': must be a finite number, got None"),
    # absent members are refused before any value is read, in the schema's order
    ({"t_start": "0", "steps": 2}, "config field 'grid.t_end': missing"),
    ({"t_end": 1.0}, "config field 'grid.t_start': missing"),
], ids=["absent", "null", "absent-before-bad", "first-absent"])
@pytest.mark.parametrize("command", ["sample", "cov"])
def test_absent_grid_member_is_missing(tmp_path, capsys, command, grid, message):
    # an absent required member is missing; an explicit null is a bad value
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, grid=grid)))
    assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "o").exists()


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_schema_block() -> str:
    """The JSON block under README's "Configuration schema", with its // comments."""
    block = README[README.index("### Configuration schema"):].split("```json\n", 1)[1]
    return block.split("```", 1)[0]


def _readme_schema_config() -> dict:
    """README's schema block, its // comments stripped."""
    return json.loads(re.sub(r"//[^\n]*", "", _readme_schema_block()))


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_schema_config_runs(tmp_path, capsys, command):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_readme_schema_config()))
    assert run_cli(["--config", str(p), "--out", str(tmp_path / "o"), command]) == 0
    assert capsys.readouterr().err == ""


# the member kinds whose readers take integers; every other kind takes reals
INTEGER_KINDS = {"integer", "mode", "target"}
# SCHEMA's rows by member path: "grid.steps", "n_paths"
SCHEMA_ROWS = {f"{name}.{key}" if isinstance(rows, dict) else name: row
               for name, rows in SCHEMA.items()
               for key, row in (rows.items() if isinstance(rows, dict) else [(name, rows)])}


def _readme_names(start: str, end: str) -> list:
    """The `names` in README between the first `start` and the next `end`."""
    text = README[README.index(start):]
    return re.findall(r"`([\w.]+)`", text[len(start):text.index(end)])


def _readme_fields(start: str, end: str) -> set:
    """_readme_names as SCHEMA paths: a name that is none is a model member's."""
    return {name if name in SCHEMA_ROWS else f"model.{name}" for name in _readme_names(start, end)}


def test_readme_lists_the_schema_members():
    # the schema block holds every member, as JSON or, where it holds an
    # alternative, in its line's // comment ({"lattice": n} beside "space")
    paths = set()
    for name, value in _readme_schema_config().items():
        paths |= {f"{name}.{key}" for key in value} if isinstance(value, dict) else {name}
    for line in _readme_schema_block().splitlines():
        code, _, comment = line.partition("//")
        section = re.match(r'\s*"(\w+)":\s*\{', code)
        if section:
            paths |= {f"{section[1]}.{key}" for key in re.findall(r'"(\w+)":', comment)}
    assert paths == set(SCHEMA_ROWS)
    assert _readme_names("top-level members are", "each") == list(SCHEMA)
    integer = {path for path, (kind, *_) in SCHEMA_ROWS.items() if kind in INTEGER_KINDS}
    assert _readme_fields("Integer config fields (", ") take") == integer
    assert _readme_fields("The model's real fields (", ") take") == set(SCHEMA_ROWS) - integer


@pytest.mark.parametrize("command", COMMANDS)
def test_resolved_config_runs_alike_and_resolves_to_itself(tmp_path, capsys, command):
    doc = _readme_schema_config()
    resolved = cli.resolved_config(doc, model_from_dict(doc), command)
    runs = []
    for name, config in (("readme", doc), ("resolved", resolved)):
        p, out = tmp_path / f"{name}.json", tmp_path / name
        p.write_text(json.dumps(config))
        code = run_cli(["--config", str(p), "--out", str(out), command])
        runs.append((code, {f.name: f.read_bytes() for f in out.glob("*")},
                     capsys.readouterr().out.replace(str(out), "<out>")))
    assert runs[0] == runs[1] and runs[0][0] == 0
    again = json.loads((tmp_path / "resolved.json").read_text())
    assert cli.resolved_config(again, model_from_dict(again), command) == resolved


@pytest.mark.parametrize("command,section,defaults", [
    ("cov", "cov", {"mode": 1}),
    ("limits", "limits", {"temporal_kappa": 1.0, "lags": list(np.geomspace(1e-2, 4.0, 25))}),
    ("holder", "holder", {"mode": 1, "t0": 5.0, "lags": [2.0 ** -e for e in range(6, 13)]}),
    ("regularity", "regularity", {"n": 0, "tau": 0.0, "sigma": 0.0}),
    ("sample", "n_paths", 1),
    ("sample", "seed", 0),
])
def test_resolved_config_fills_defaults(command, section, defaults):
    doc = {name: value for name, value in BASE_CONFIG.items() if name not in ("n_paths", "seed")}
    assert cli.resolved_config(doc, model_from_dict(doc), command)[section] == defaults


def test_console_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "stwm.cli", "--help"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert all(re.search(rf"^  {c} +\S", proc.stdout, re.MULTILINE) for c in COMMANDS)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs the CLI memory and start-up time on every command;
    # only drawing a stream may load it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, stwm.cli; sys.exit('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr or "import stwm.cli loaded numpy.random"
