import json

import numpy as np
import pytest

from renyidpi import ConfigInvalid, equality, matrix_to_json
from renyidpi.cli import (
    CSV_COLUMNS,
    DEFAULT_ALPHA_GRID,
    ExperimentConfig,
    ScanRow,
    emit,
    main,
    read_rows,
    run,
)
from helpers import counting


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(scenario="teleport").validate()

    def test_bad_trials(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(scenario="dpi-scan", trials=0).validate()

    def test_bad_dims(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(scenario="dpi-scan", dims=(1, 2)).validate()

    def test_bad_alpha(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(scenario="dpi-scan", alpha_grid=(0.0,)).validate()

    def test_an_order_the_search_rejects_is_a_config_error(self):
        # |alpha| < 1e-3 is outside the search's working range: the config
        # is rejected before any trial runs, wherever it sits in the grid.
        for grid in ((0.9, 5e-4), (5e-4, 0.9), (-5e-4,)):
            cfg = ExperimentConfig(scenario="variational-check", seed=1, trials=1,
                                   alpha_grid=grid)
            with pytest.raises(ConfigInvalid, match=r"variational search needs "
                                                    r"\|alpha\| >= 0\.001, got -?0\.0005"):
                cfg.validate()

    def test_integral_check_rejects_the_closed_endpoint(self):
        # The integral representation needs alpha in (-1,0) u (0,1), so
        # -1.0 is a config error there, though other scenarios accept it.
        cfg = ExperimentConfig(scenario="integral-check", alpha_grid=(0.5, -1.0))
        with pytest.raises(ConfigInvalid, match=r"needs alpha in \(-1,0\) or \(0,1\), got -1\.0"):
            cfg.validate()
        ExperimentConfig(scenario="divergence", alpha_grid=(0.5, -1.0)).validate()

    def test_nonfinite_beta(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(scenario="equality-scan", beta_grid=(complex(0.5, np.inf),)).validate()

    def test_states_must_come_together(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(scenario="divergence", rho=np.eye(2) / 2).validate()


class TestScenarios:
    def test_dpi_scan_passes(self):
        rows, summary = run(ExperimentConfig(scenario="dpi-scan", seed=1, trials=6))
        assert summary["pass"]
        assert all(r.dpi_ok for r in rows)
        assert summary["max_dpi_violation"] == 0.0

    def test_recovery_test_saturates(self):
        rows, summary = run(ExperimentConfig(
            scenario="recovery-test", seed=2, trials=3, alpha_grid=(-0.5, 0.5)))
        assert summary["pass"]
        assert all(r.saturated for r in rows)
        assert summary["max_saturating_residual"] <= 1e-8
        assert all(r.recovery_err <= 1e-8 for r in rows)

    def test_equality_scan_generic(self):
        rows, summary = run(ExperimentConfig(
            scenario="equality-scan", seed=3, trials=3, alpha_grid=(0.5,)))
        assert summary["pass"]
        assert all(not r.saturated for r in rows)
        assert all(r.t3 > 1e-6 for r in rows)

    def test_variational_check(self):
        rows, summary = run(ExperimentConfig(
            scenario="variational-check", seed=4, trials=2, alpha_grid=(0.3, -0.6)))
        assert summary["pass"]
        assert all(r.dpi_gap <= 1e-6 and r.recovery_err <= 1e-4 for r in rows)

    def test_integral_check(self):
        rows, summary = run(ExperimentConfig(
            scenario="integral-check", seed=5, trials=2, alpha_grid=(0.25, -0.75)))
        assert summary["pass"]

    def test_integral_check_seed_111(self):
        # Trial 1 is the matrix with eigenvalues 5.1e-5 and 2.0.
        assert main(["integral-check", "--seed", "111"]) == 0

    def test_divergence_user_states_match_classical(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        sigma = np.diag([0.25, 0.75]).astype(complex)
        rows, summary = run(ExperimentConfig(
            scenario="divergence", seed=6, trials=1, alpha_grid=(0.5,),
            rho=rho, sigma=sigma))
        assert summary["pass"]
        assert rows[0].d_sand == pytest.approx(np.log(4.0 / 3.0), abs=1e-12)
        assert rows[0].d_rel == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-12)

    def test_failing_trial_is_flagged_not_fatal(self):
        # A singular user state cannot be built into a density matrix; the
        # scan keeps going and flags the rows.
        rows, summary = run(ExperimentConfig(
            scenario="divergence", seed=7, trials=2, alpha_grid=(0.5,),
            rho=np.diag([1.0, 0.0]).astype(complex),
            sigma=np.diag([0.5, 0.5]).astype(complex)))
        assert not summary["pass"]
        assert len(summary["errors"]) == 2
        assert all(not r.dpi_ok for r in rows)


class TestVariationalCheck:
    # The optimizers are computed states: no positivity floor applies to
    # them, so a trial whose omega_* lies below it is a real row.

    def test_seed_1_trial_0_passes(self):
        # omega_* has a smallest eigenvalue below 1e-10 at alpha = 0.9.
        rows, summary = run(ExperimentConfig(scenario="variational-check", seed=1, trials=1))
        assert summary["errors"] == [] and summary["pass"]
        assert len(rows) == len(DEFAULT_ALPHA_GRID) and all(r.dpi_ok for r in rows)

    def test_a_3x2_trial_passes(self):
        rows, summary = run(ExperimentConfig(
            scenario="variational-check", seed=1, trials=1, dims=(3, 2)))
        assert summary["errors"] == [] and summary["pass"]
        assert all(r.dpi_ok for r in rows)


class TestSummary:
    def test_max_saturating_residual_covers_every_closed_gap(self):
        # Trial 1 of recovery-test at 4x4, seed 122, closes its gap but has
        # t3 = 2.23e-8 at alpha = 0.9: that row is not saturated, and the
        # summary still reports its residual next to the failed verdict.
        rows, summary = run(ExperimentConfig(
            scenario="recovery-test", seed=122, trials=2, dims=(4, 4)))
        closed = [r for r in rows if r.dpi_gap <= summary["tolerances"]["dpi"]]
        worst = max(max(r.t1, r.t1_geo, r.t3, r.petz_beta, r.necessary2) for r in closed)
        assert not summary["pass"]
        assert summary["max_saturating_residual"] == worst > 1e-8
        assert worst > max(max(r.t1, r.t1_geo, r.t3, r.petz_beta, r.necessary2)
                           for r in rows if r.saturated)


class TestAlphaIndependentWork:
    def test_once_per_trial(self, monkeypatch):
        # The compression and the commutator do not depend on alpha: one
        # of each per trial, whatever the length of the alpha grid.
        compressions = counting(monkeypatch, equality, "CompressionIsometry")
        commutators = counting(monkeypatch, equality, "jensen_commutator_norm")
        cfg = ExperimentConfig(scenario="equality-scan", seed=12, trials=3)
        rows, _ = run(cfg)
        assert len(cfg.alpha_grid) == 10 and len(rows) == 30
        assert len(compressions) == len(commutators) == 3

    @pytest.mark.parametrize("scenario", ["dpi-scan", "integral-check"])
    def test_eigensolves_do_not_grow_with_the_grid(self, monkeypatch, scenario):
        # One library call per trial over the whole grid: dpi-scan builds
        # and decomposes the Kraus trial's output states once, and
        # integral-check decomposes its matrix once, not once per alpha.
        eighs = counting(monkeypatch, np.linalg, "eigh")
        counts = []
        for grid in ((0.5,), DEFAULT_ALPHA_GRID):
            eighs.clear()
            run(ExperimentConfig(scenario=scenario, seed=3, trials=2, alpha_grid=grid))
            counts.append(len(eighs))
        assert len(DEFAULT_ALPHA_GRID) == 10 and counts[0] == counts[1] > 0


class TestEmit:
    def test_empty_rows_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit([], "csv", path)
        lines = open(path).read().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_single_row_two_lines(self, tmp_path):
        path = str(tmp_path / "one.csv")
        emit([ScanRow(trial=0, alpha=0.5)], "csv", path)
        assert len(open(path).read().splitlines()) == 2

    def test_round_trip_random_rows(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = [
            ScanRow(trial=i, alpha=float(rng.uniform(-0.9, 0.9)),
                    beta_re=float(rng.standard_normal()),
                    d_sand=float(rng.standard_normal()),
                    dpi_gap=float(rng.standard_normal()),
                    t3=float(abs(rng.standard_normal())),
                    dpi_ok=bool(rng.random() > 0.5),
                    saturated=bool(rng.random() > 0.5))
            for i in range(100)
        ]
        for fmt in ("csv", "json"):
            path = str(tmp_path / f"r.{fmt}")
            emit(rows, fmt, path)
            assert read_rows(path, fmt) == rows

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            emit([], "yaml", str(tmp_path / "x"))


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            rows, _ = run(ExperimentConfig(scenario="dpi-scan", seed=11, trials=5))
            path = str(tmp_path / name)
            emit(rows, "csv", path)
            paths.append(path)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


class TestMain:
    def test_pass_exit_code(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        rc = main(["dpi-scan", "--seed", "1", "--trials", "2", "--out", out])
        assert rc == 0
        assert len(open(out).read().splitlines()) == 21

    def test_config_error_exit_code(self):
        assert main(["dpi-scan", "--dims", "nonsense"]) == 2

    def test_io_error_exit_code(self, tmp_path):
        rc = main(["dpi-scan", "--trials", "1",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
        assert rc == 3

    def test_tolerance_violation_exit_code(self, tmp_path):
        config = {"tolerances": {"variational_value": 0.0, "variational_state": 0.0},
                  "trials": 1, "alpha_grid": [0.3]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["variational-check", "--config", str(cfg_path)]) == 1

    def test_config_overrides_flags_except_seed(self, tmp_path):
        config = {"trials": 1, "seed": 99, "alpha_grid": [0.5]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        # --trials 7 loses to the config's 1 trial; --seed 5 beats seed 99.
        rc = main(["dpi-scan", "--config", str(cfg_path), "--trials", "7",
                   "--seed", "5", "--out", out1])
        assert rc == 0
        assert len(open(out1).read().splitlines()) == 2
        rc = main(["dpi-scan", "--seed", "5", "--trials", "1", "--out", out2])
        assert rc == 0
        row_cfg = read_rows(out1, "csv")[0]
        row_flag = [r for r in read_rows(out2, "csv") if r.alpha == 0.5][0]
        assert row_cfg.dpi_gap == row_flag.dpi_gap

    @pytest.mark.parametrize("config,flags", [
        ({"alpha_grid": "abc"}, []),
        ({"tolerances": 5}, []),
        ({"beta_grid": [1]}, []),
        ([0.5, 0.5], []),
        (None, ["--dims", "2xz"]),
        (None, ["--seed", "-1"]),
        ({"seed": -3}, []),
        ({"tolerances": {"saturaton": 1e-30}}, []),
        # A config may name its scenario; the subcommand follows it.
        ({"scenario": "divergence", "rho": matrix_to_json(np.eye(2)),
          "sigma": matrix_to_json(np.eye(2) / 2)}, []),
        ({"scenario": "divergence", "rho": matrix_to_json(np.eye(2) / 2),
          "sigma": matrix_to_json(np.eye(3) / 3)}, []),
        ({"scenario": "dpi-scan", "rho": matrix_to_json(np.eye(4) / 4),
          "sigma": matrix_to_json(np.eye(4) / 4)}, []),
        ({"scenario": "integral-check", "rho": matrix_to_json(np.eye(2) / 2),
          "sigma": matrix_to_json(np.eye(2) / 2)}, []),
        ({"scenario": "divergence", "beta_grid": [[1.0, 0.0]]}, []),
        # Tolerances must be finite and nonnegative; counts and dims must
        # be integers, not truncated floats or bools.
        ({"tolerances": {"dpi": float("nan")}}, []),
        ({"tolerances": {"dpi": -1}}, []),
        ({"tolerances": {"saturation": float("inf")}}, []),
        ({"trials": 2.7}, []),
        ({"seed": 1.9}, []),
        ({"dims": [2.5, 2]}, []),
        ({"restarts": -3}, []),
        ({"trials": True}, []),
        # Betas must be finite in both parts.
        ({"beta_grid": [[float("nan"), 0]]}, []),
        ({"beta_grid": [[float("inf"), 0]]}, []),
        ({"beta_grid": [[0, float("nan")]]}, []),
        # The report format is checked before the scan runs, with or
        # without a report path.
        ({"format": "xml"}, []),
        ({"format": 5, "out": "o.csv"}, []),
        # An order outside the domain of the scenario's method.
        ({"scenario": "integral-check", "alpha_grid": [-1.0]}, []),
        ({"scenario": "variational-check", "alpha_grid": [0.0005]}, []),
    ])
    def test_malformed_input_exit_code(self, tmp_path, capsys, config, flags):
        named = config.get("scenario") if isinstance(config, dict) else None
        argv = [named or "equality-scan", "--trials", "1", *flags]
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_config_scenario_contradiction(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "divergence"}))
        assert main(["dpi-scan", "--config", str(cfg_path)]) == 2

    def test_divergence_states_from_config(self, tmp_path, capsys):
        config = {
            "trials": 1,
            "alpha_grid": [0.5],
            "rho": matrix_to_json(np.diag([0.5, 0.5])),
            "sigma": matrix_to_json(np.diag([0.25, 0.75])),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = str(tmp_path / "d.json")
        rc = main(["divergence", "--config", str(cfg_path), "--format", "json",
                   "--out", out])
        assert rc == 0
        row = read_rows(out, "json")[0]
        assert row.d_sand == pytest.approx(np.log(4.0 / 3.0), abs=1e-12)
