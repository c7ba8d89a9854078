import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import manitrans
from manitrans import bench_cli, flag_grassmann, group_core, stiefel
from manitrans.bench_cli import (
    Adapter, BenchConfig, build_parser, config_from_args, main, make_adapter,
    run_isometry, run_timing, run_verify, write_csv, CSV_SCHEMA_COMMENT)
from manitrans.errors import ConfigError
from manitrans.utils import sym


def read_csv(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestConfig:
    def test_rejects_unknown_manifold(self):
        with pytest.raises(ConfigError):
            BenchConfig(manifold="torus")

    def test_rejects_nonincreasing_grid(self):
        with pytest.raises(ConfigError):
            BenchConfig(manifold="so", n=4, d=2, t_grid=(1.0, 1.0))

    def test_rejects_zero_repeats(self):
        with pytest.raises(ConfigError):
            BenchConfig(manifold="so", n=4, d=2, repeats=0)

    def test_flag_requires_blocks(self):
        with pytest.raises(ConfigError, match="^flag: d_list must hold one"):
            make_adapter(BenchConfig(manifold="flag", n=8))

    @pytest.mark.parametrize("manifold, sizes, message", [
        ("grassmann", dict(n=8, d=0), "d must be an integer of at least 1"),
        ("grassmann", dict(n=8, d=8), "d_list must leave n - d >= 1"),
        ("gl", dict(n=0), "n must be an integer of at least 1"),
    ])
    def test_size_errors_are_the_library_s(self, manifold, sizes, message):
        with pytest.raises(ConfigError, match=f"^{manifold}: {message}"):
            make_adapter(BenchConfig(manifold=manifold, **sizes))

    def test_flag_requires_canonical_alpha(self):
        with pytest.raises(ConfigError):
            make_adapter(BenchConfig(manifold="flag", n=8, d_list=(2, 2),
                                     alpha=0.8))


class TestRunners:
    def test_timing_rows(self):
        config = BenchConfig(manifold="stiefel", n=16, d=3, alpha=0.5,
                             t_grid=(0.5, 1.0), repeats=2, seed=7)
        rows = run_timing(config)
        assert len(rows) == 2
        for row in rows:
            assert row["residual_check"] == "pass"
            assert row["median_seconds"] > 0

    def test_isometry_rows_and_drift(self):
        config = BenchConfig(manifold="stiefel", n=20, d=4, alpha=1.0,
                             t_grid=(0.5, 1.5), num_vectors=5, seed=7)
        rows = run_isometry(config)
        assert len(rows) == 2
        for row in rows:
            assert row["max_gram_drift"] <= 1e-9

    def test_isometry_gl_small(self):
        config = BenchConfig(manifold="gl", n=4, beta=0.7,
                             t_grid=(0.5, 1.0), num_vectors=3, seed=7)
        rows = run_isometry(config)
        assert max(row["max_gram_drift"] for row in rows) <= 1e-8

    def test_verify_small_instances(self):
        for manifold, extra in (("stiefel", dict(n=8, d=3, alpha=1.0)),
                                ("so", dict(n=6, d=2, alpha=0.8)),
                                ("gl", dict(n=4, beta=0.7)),
                                ("grassmann", dict(n=7, d=2)),
                                ("flag", dict(n=10, d_list=(2, 2), alpha=0.5))):
            config = BenchConfig(manifold=manifold, t_grid=(0.5, 1.0), seed=3,
                                 **extra)
            rows = run_verify(config)
            for row in rows:
                assert row["oracle_error"] <= 1e-6
                assert row["fd_residual"] <= 1e-5

    def test_singleton_grid_single_row(self):
        config = BenchConfig(manifold="so", n=5, d=2, alpha=0.8,
                             t_grid=(1.0,), repeats=1, seed=3)
        assert len(run_timing(config)) == 1

    def test_isometry_time_zero_grid_has_zero_drift(self):
        config = BenchConfig(manifold="stiefel", n=12, d=3, alpha=0.5,
                             t_grid=(0.0,), num_vectors=3, seed=3)
        rows = run_isometry(config)
        assert rows[0]["max_gram_drift"] == 0.0

    def test_verify_caps_size(self):
        config = BenchConfig(manifold="stiefel", n=100, d=3, t_grid=(1.0,))
        with pytest.raises(ConfigError):
            run_verify(config)

    def test_flag_bench_and_isometry_run_through_a_plan(self, monkeypatch,
                                                        tmp_path):
        # timed flag calls reuse one plan, as the Stiefel ones do, and never
        # redo the one-shot transport's checks and factorization
        import manitrans.flag_grassmann as fg

        def one_shot(*args, **kwargs):
            raise AssertionError("one-shot flag transport called")

        monkeypatch.setattr(fg, "flag_transport_canonical", one_shot)
        flag = dict(manifold="flag", n=14, d_list=(2, 3, 1), alpha=0.5, seed=7)
        rows = run_timing(BenchConfig(t_grid=(0.5, 2.0), repeats=2, **flag))
        assert [row["residual_check"] for row in rows] == ["pass", "pass"]
        rows = run_isometry(BenchConfig(t_grid=(0.5, 20.0), num_vectors=4, **flag))
        assert max(row["max_gram_drift"] for row in rows) <= 1e-9
        assert main(["bench", "--manifold", "flag", "--n", "12", "--d-list",
                     "2,2", "--t-grid", "1", "--repeats", "1",
                     "--out", str(tmp_path / "flag.csv")]) == 0

    @pytest.mark.parametrize("manifold, size, blocks", [
        ("stiefel", dict(n=8, d=3), None),
        ("flag", dict(n=10, d_list=(2, 2)), (2, 2)),
        ("grassmann", dict(n=9, d=3), (3,))])
    def test_residual_is_coefficient_residual(self, manifold, size, blocks):
        # coefficient_residual with the signature's mask; to rounding, the
        # norm of sym(Y^T d), with the flag blocks, and of Y^T d on Grassmann
        adapter = make_adapter(BenchConfig(manifold=manifold, **size))
        mask = blocks and flag_grassmann.FlagSignature(blocks, size["n"]).block_mask
        rng = np.random.default_rng(5)
        y = adapter.random_point(rng)
        for delta in (adapter.random_tangent(rng, y), rng.standard_normal(y.shape)):
            coeff = y.T @ delta
            got = adapter.tangency_residual(y, delta)
            assert got == float(stiefel.coefficient_residual(coeff, mask))
            want = {"stiefel": np.linalg.norm(sym(coeff)),
                    "flag": max(np.linalg.norm(sym(coeff)),
                                np.linalg.norm(coeff[mask])),
                    "grassmann": np.linalg.norm(coeff)}[manifold]
            assert abs(got - want) <= 1e-15 * max(1.0, want)

    def test_isometry_reproducible_with_fixed_seed(self):
        config = BenchConfig(manifold="stiefel", n=16, d=3, alpha=0.5,
                             t_grid=(0.5, 2.0), num_vectors=4, seed=11)
        rows_a = run_isometry(config)
        rows_b = run_isometry(config)
        assert rows_a == rows_b


class TestGeodesicSeam:
    """One seam per instance gives the geodesic's transport and velocity."""

    def test_adapter_has_one_geodesic_seam(self):
        fields = {f.name for f in dataclasses.fields(Adapter)}
        assert "geodesic" in fields
        assert not fields & {"geodesic_velocity", "transporter"}

    @pytest.mark.parametrize("runner", [run_verify, run_timing, run_isometry])
    @pytest.mark.parametrize("manifold, size", [
        ("stiefel", dict(n=8, d=3)), ("flag", dict(n=10, d_list=(2, 2))),
        ("grassmann", dict(n=9, d=3))])
    def test_one_decomposition_per_instance(self, monkeypatch, runner,
                                            manifold, size):
        # the RK oracle's geodesic velocity included
        calls = []
        real = stiefel.decompose_tangent
        for module in (stiefel, flag_grassmann):
            monkeypatch.setattr(module, "decompose_tangent", lambda *args, **kwargs:
                                calls.append(1) or real(*args, **kwargs))
        runner(BenchConfig(manifold=manifold, t_grid=(0.5, 1.0), repeats=2,
                           num_vectors=3, seed=5, **size))
        assert len(calls) == 1

    @pytest.mark.parametrize("runner", [run_verify, run_timing, run_isometry])
    @pytest.mark.parametrize("manifold, size", [
        ("so", dict(n=6, d=2, alpha=0.8)), ("gl", dict(n=4, beta=0.5))])
    def test_one_group_plan_per_instance(self, monkeypatch, runner, manifold,
                                         size):
        # one plan build, with one point check, and one P_a; each metric
        # value checks its own point, and the oracle's Christoffel function
        # converts by to_algebra
        calls = dict.fromkeys(("make_transport_plan", "check_point", "metric",
                               "p_a_operator"), 0)
        for name in calls:
            real = getattr(group_core, name)
            monkeypatch.setattr(group_core, name, lambda *args, name=name,
                                real=real: calls.update({name: calls[name] + 1})
                                or real(*args))
        runner(BenchConfig(manifold=manifold, t_grid=(0.5, 1.0), repeats=2,
                           num_vectors=3, seed=5, **size))
        assert calls["make_transport_plan"] == calls["p_a_operator"] == 1
        assert calls["check_point"] == calls["metric"] + 1

    @pytest.mark.parametrize("manifold, size", [
        ("stiefel", dict(n=8, d=3)), ("flag", dict(n=10, d_list=(2, 2))),
        ("grassmann", dict(n=9, d=3)), ("so", dict(n=6, d=2, alpha=0.8)),
        ("gl", dict(n=4, beta=0.5))])
    def test_one_metric_call_per_gram_matrix(self, monkeypatch, manifold, size):
        # one call on stacks per grid time and one for the reference Gram
        # matrix; the other calls give the unit lengths of single vectors
        calls = []
        real = bench_cli.make_adapter

        def counted(config):
            adapter = real(config)
            return dataclasses.replace(adapter, metric=lambda y, xi, eta: calls.append(
                np.ndim(xi)) or adapter.metric(y, xi, eta))

        monkeypatch.setattr(bench_cli, "make_adapter", counted)
        config = BenchConfig(manifold=manifold, t_grid=(0.5, 1.0, 2.0),
                             num_vectors=4, seed=5, **size)
        run_isometry(config)
        assert calls.count(3) == len(config.t_grid) + 1
        assert calls.count(2) == config.num_vectors + 1
        assert len(calls) == len(config.t_grid) + config.num_vectors + 2


class TestCsvAndCli:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "rows.csv"
        write_csv([{"a": 1, "b": 0.5}, {"a": 2, "b": float(np.float64(0.25))}],
                  str(out))
        lines = read_csv(out)
        assert lines[0] == CSV_SCHEMA_COMMENT
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,0.25"

    def test_cli_verify_roundtrip(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--manifold", "so", "--n", "5", "--d", "2",
                     "--alpha", "0.8", "--t-grid", "0.5,1", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        lines = read_csv(out)
        assert lines[0] == CSV_SCHEMA_COMMENT
        assert len(lines) == 4  # comment, header, two rows

    @pytest.mark.parametrize("runner, count", [("bench", "--repeats"),
                                               ("isometry", "--vectors")])
    def test_cli_negative_grid_in_equals_form(self, tmp_path, runner, count):
        out = tmp_path / "grid.csv"
        code = main([runner, "--manifold", "stiefel", "--n", "40", "--d", "4",
                     "--t-grid=-2,-0.5,0.5,2", count, "3", "--out", str(out)])
        assert code == 0
        lines = read_csv(out)
        assert [row.split(",")[5] for row in lines[2:]] == [
            "-2.0", "-0.5", "0.5", "2.0"]

    def test_cli_config_error_exit_code(self, capsys):
        code = main(["verify", "--manifold", "stiefel", "--n", "100",
                     "--d", "3", "--t-grid", "1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_cli_bad_grid_exit_code(self, capsys):
        code = main(["bench", "--manifold", "so", "--n", "5", "--d", "2",
                     "--t-grid", "2,1"])
        assert code == 2

    def test_cli_verification_failure_exit_code(self, monkeypatch, capsys):
        import manitrans.stiefel

        def broken_transport(plan, y, eta, t):
            return eta + 1.0  # loses tangency (and horizontality)

        monkeypatch.setattr(manitrans.stiefel, "transport_with_plan",
                            broken_transport)
        for size in (["stiefel", "--d", "2"], ["flag", "--d-list", "2,1"],
                     ["grassmann", "--d", "2"]):
            code = main(["bench", "--manifold", *size, "--n", "10",
                         "--t-grid", "1", "--repeats", "1"])
            assert code == 3
            assert "verification failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bench", "--manifold", "so", "--n", "5", "--d", "2", "--alpha", "-1"],
        ["bench", "--manifold", "gl", "--n", "4", "--beta", "0"],
        ["bench", "--manifold", "flag", "--n", "4", "--d-list", "2,2"],
        ["bench", "--manifold", "grassmann", "--n", "6", "--d", "2",
         "--alpha", "0.9"],
        ["bench", "--manifold", "so", "--n", "5", "--d", "2", "--t-grid", "nan"],
        ["bench", "--manifold", "so", "--n", "5", "--d", "2", "--t-grid", "inf"],
        ["verify", "--manifold", "stiefel", "--n", "6", "--d", "2",
         "--t-grid=-1,1"],
    ], ids=["so-alpha", "gl-beta", "flag-blocks", "grassmann-alpha",
            "grid-nan", "grid-inf", "verify-negative-t"])
    def test_cli_library_argument_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_module_entry_point_runs_without_warnings(self):
        # the package must not import bench_cli before runpy executes it
        src = str(pathlib.Path(manitrans.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "manitrans.bench_cli", "verify", "--manifold", "so", "--n", "5",
             "--d", "2", "--alpha", "0.8", "--t-grid", "0.5"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(CSV_SCHEMA_COMMENT)

    def test_parser_dlist(self):
        parser = build_parser()
        args = parser.parse_args(
            ["isometry", "--manifold", "flag", "--n", "12",
             "--d-list", "2,2", "--alpha", "0.5", "--t-grid", "0.5"])
        config = config_from_args(args)
        assert config.d_list == (2, 2)
