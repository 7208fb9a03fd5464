import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from renyidpi import ConfigInvalid, KrausChannel, RenyiDpiError, cli, equality, matrix_to_json, random_channel, stream
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
        # of each per stacked pass, whatever the length of the alpha grid.
        # The three trials make one pass on either grid.
        compressions = counting(monkeypatch, equality, "CompressionIsometry")
        commutators = counting(monkeypatch, equality, "jensen_commutator_norm")
        counts = []
        for grid in ((0.5,), DEFAULT_ALPHA_GRID):
            compressions.clear()
            commutators.clear()
            rows, _ = run(ExperimentConfig(scenario="equality-scan", seed=12, trials=3,
                                           alpha_grid=grid))
            assert len(rows) == 3 * len(grid)
            counts.append((len(compressions), len(commutators)))
        assert len(DEFAULT_ALPHA_GRID) == 10 and counts == [(1, 1), (1, 1)]

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


class TestSaturationPasses:
    # A saturation pass stacks at most SATURATION_ENTRIES entries of
    # n_alpha * n_beta * d^2 each, so 4x4 runs one trial per pass.

    def test_trials_per_pass_under_the_default_grids(self):
        sizes = {dims: cli._saturation_pass(ExperimentConfig(scenario=scenario, dims=dims))
                 for dims in ((2, 2), (2, 3), (3, 2), (4, 4))
                 for scenario in ("equality-scan", "recovery-test")}
        assert sizes == {(2, 2): 16, (2, 3): 7, (3, 2): 7, (4, 4): 1}

    def test_4x4_peak_memory_does_not_grow_with_the_trials(self):
        cfg = dict(scenario="equality-scan", seed=1, dims=(4, 4))
        run(ExperimentConfig(**cfg, trials=1))  # first-call caches
        peaks = []
        for trials in (1, 4):
            tracemalloc.start()
            try:
                run(ExperimentConfig(**cfg, trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


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


class TestStackedScans:
    # Every scenario but variational-check and integral-check evaluates a
    # block of trials in stacked passes.

    @pytest.mark.parametrize("scenario", ["divergence", "dpi-scan", "equality-scan",
                                          "recovery-test"])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_blocks_equal_one_trial_runs(self, monkeypatch, scenario, dims):
        # Blocks of 3 (the last one short) against the one-state path.
        monkeypatch.setattr(cli, "TRIAL_BLOCK", 3)
        cfg = ExperimentConfig(scenario=scenario, seed=7, trials=8, dims=dims)
        rows, summary = run(cfg)
        runner = cli._RUNNERS[scenario][0]
        singles = [row for t in range(8) for row in runner(cfg, [t], stream(7, t))]
        assert summary["errors"] == [] and rows == singles

    def test_dpi_scan_with_a_larger_traced_factor(self):
        # d_B > d_A: the odd trials' channels map dim 6 to dim 2.
        for dims in ((2, 3), (2, 4)):
            rows, summary = run(ExperimentConfig(scenario="dpi-scan", seed=1, dims=dims))
            assert summary["errors"] == [] and summary["pass"]
            assert all(r.dpi_gap > 0.0 for r in rows if r.trial % 2)

    def test_a_failing_trial_is_recorded_alone(self, monkeypatch):
        # Trial 3's channel maps every state to |0><0|, below the floor.
        cfg = dict(scenario="dpi-scan", seed=1, trials=8)
        clean, _ = run(ExperimentConfig(**cfg))
        trial_of = {}

        def tagged(seed, *key):
            rng = stream(seed, *key)
            trial_of[id(rng)] = key[0]
            return rng

        pinch = np.zeros((4, 2, 4), dtype=complex)
        pinch[np.arange(4), 0, np.arange(4)] = 1.0

        def planted(in_dim, out_dim, rng_seed):
            ch = random_channel(in_dim, out_dim, rng_seed=rng_seed)  # the real draws
            stacked = isinstance(rng_seed, list)
            trials = [trial_of[id(r)] for r in (rng_seed if stacked else [rng_seed])]
            if 3 not in trials:
                return ch
            ops = np.zeros((4, len(trials), 2, 4), dtype=complex)
            ops[:2] = np.reshape(ch.kraus_ops, (2, len(trials), 2, 4))
            ops[:, trials.index(3)] = pinch
            return KrausChannel.stack(tuple(ops)) if stacked else KrausChannel(tuple(ops[:, 0]))

        monkeypatch.setattr(cli, "stream", tagged)
        monkeypatch.setattr(cli, "random_channel", planted)
        rows, summary = run(ExperimentConfig(**cfg))
        assert summary["errors"] == [{"trial": 3, "error": "NotPositiveDefinite: density matrix "
                                      "has eigenvalue 0.000e+00 below floor 1e-10"}]
        assert all(not r.dpi_ok and r.dpi_gap == 0.0 for r in rows if r.trial == 3)
        assert [r for r in rows if r.trial != 3] == [r for r in clean if r.trial != 3]

    def test_a_failing_per_trial_scenario_trial_is_recorded_alone(self, monkeypatch):
        # recovery-test runs the four trials in one stacked pass; any
        # triple built from trial 2's generator raises, so the pass
        # fails and its trials run again one by one.
        cfg = dict(scenario="recovery-test", seed=1, trials=4)
        clean, _ = run(ExperimentConfig(**cfg))
        build = cli.build_recoverable_triple
        trial_2 = []

        def tagged(seed, *key):
            rng = stream(seed, *key)
            if key == (2,):
                trial_2.append(rng)
            return rng

        def planted(kind, dims, rng):
            pair = build(kind, dims, rng)  # the real draws
            if any(r in trial_2 for r in (rng if isinstance(rng, list) else [rng])):
                raise RenyiDpiError("planted failure")
            return pair

        monkeypatch.setattr(cli, "stream", tagged)
        monkeypatch.setattr(cli, "build_recoverable_triple", planted)
        rows, summary = run(ExperimentConfig(**cfg))
        assert summary["errors"] == [{"trial": 2, "error": "RenyiDpiError: planted failure"}]
        failed = [r for r in rows if r.trial == 2]
        assert failed == [ScanRow(2, a, dpi_ok=False) for a in DEFAULT_ALPHA_GRID]
        assert [r for r in rows if r.trial != 2] == [r for r in clean if r.trial != 2]
        assert [r.trial for r in rows] == [t for t in range(4) for _ in DEFAULT_ALPHA_GRID]

    def test_user_states_are_evaluated_once(self, monkeypatch):
        eighs = counting(monkeypatch, np.linalg, "eigh")
        scans = []
        for trials in (1, 3):
            eighs.clear()
            rows, _ = run(ExperimentConfig(
                scenario="divergence", seed=6, trials=trials,
                rho=np.diag([0.5, 0.5]).astype(complex),
                sigma=np.diag([0.25, 0.75]).astype(complex)))
            scans.append((len(eighs), rows))
        (one_count, one_rows), (three_count, three_rows) = scans
        assert one_count == three_count > 0
        assert [r.trial for r in three_rows] == [t for t in range(3) for _ in DEFAULT_ALPHA_GRID]
        for t in range(3):
            block = three_rows[t * 10:(t + 1) * 10]
            assert [replace(r, trial=0) for r in block] == one_rows

    def test_recovery_test_reuses_the_certificate(self, monkeypatch):
        # The certificate's recovery error is the context's: one batched
        # trace-norm SVD per stacked pass, as for equality-scan. Blocks of
        # two split the three trials into two passes.
        svds = counting(monkeypatch, np.linalg, "svd")
        counts = []
        for block in (64, 2):
            monkeypatch.setattr(cli, "TRIAL_BLOCK", block)
            for scenario in ("recovery-test", "equality-scan"):
                svds.clear()
                run(ExperimentConfig(scenario=scenario, seed=3, trials=3, alpha_grid=(0.5,)))
                counts.append(len(svds))
        assert counts == [1, 1, 2, 2]
