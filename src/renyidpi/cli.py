"""Command-line experiment harness.

Runs seeded randomized scans (divergences, data-processing gaps,
saturation residuals, recovery checks, optimizer and quadrature
cross-checks) and writes one row per (trial, alpha) to CSV or JSON.

The CSV header is fixed across scenarios:

    trial, alpha, beta_re, beta_im, d_sand, d_petz, d_rel, dpi_gap, t1,
    t1_geo, t3, petz_beta, necessary2, commutator, recovery_err, dpi_ok,
    saturated

Scenarios fill the columns they produce and leave the rest at zero. Two
scenarios reuse columns for their own figures of merit (documented in the
README): variational-check stores the optimizer value mismatch in dpi_gap
and the trace distance between the searched and closed-form optimizers in
recovery_err; integral-check stores the quadrature residual in dpi_gap.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (ConfigInvalid, DimensionMismatch, InvalidAlpha, IoFailure,
                     NotPositiveDefinite, RenyiDpiError)
from .linalg import matrix_from_json, order_array, trace_distance
from .quantum import DensityMatrix, partial_trace_channel, random_channel, random_density, stream
from .divergence import (
    OptimizerConfig,
    check_quadrature_order,
    check_variational_orders,
    closed_form_optimizer,
    dpi_gap,
    integral_representation_check,
    petz_renyi,
    relative_entropy,
    sandwiched_renyi,
    variational_value,
)
from .equality import (
    RECOVERABLE_KINDS,
    SaturationContext,
    build_recoverable_triple,
    full_report,
    mutual_implication_ok,
)

SCENARIOS = ("divergence", "dpi-scan", "equality-scan", "recovery-test",
             "variational-check", "integral-check")

CSV_COLUMNS = ("trial", "alpha", "beta_re", "beta_im", "d_sand", "d_petz", "d_rel",
               "dpi_gap", "t1", "t1_geo", "t3", "petz_beta", "necessary2",
               "commutator", "recovery_err", "dpi_ok", "saturated")

DEFAULT_ALPHA_GRID = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9)

DEFAULT_TOLERANCES = {
    "dpi": 1e-9,
    "saturation": 1e-8,
    "variational_value": 1e-6,
    "variational_state": 1e-4,
    "integral": 1e-6,
}


@dataclass
class ScanRow:
    trial: int
    alpha: float
    beta_re: float = 0.0
    beta_im: float = 0.0
    d_sand: float = 0.0
    d_petz: float = 0.0
    d_rel: float = 0.0
    dpi_gap: float = 0.0
    t1: float = 0.0
    t1_geo: float = 0.0
    t3: float = 0.0
    petz_beta: float = 0.0
    necessary2: float = 0.0
    commutator: float = 0.0
    recovery_err: float = 0.0
    dpi_ok: bool = True
    saturated: bool = False

    def __post_init__(self):
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            if name in ("dpi_ok", "saturated"):
                setattr(self, name, bool(value))
            elif name == "trial":
                self.trial = int(value)
            else:
                value = float(value)
                if not np.isfinite(value):
                    raise ValueError(f"row field {name} is not finite")
                setattr(self, name, value)


@dataclass
class ExperimentConfig:
    scenario: str
    seed: int = 0
    dims: tuple[int, int] = (2, 2)
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    beta_grid: tuple[complex, ...] | None = None
    trials: int = 20
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    restarts: int = 4
    rho: np.ndarray | None = None
    sigma: np.ndarray | None = None

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigInvalid(f"unknown scenario {self.scenario!r}")
        for name, low in (("seed", 0), ("trials", 1), ("restarts", 1)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ConfigInvalid(f"{name} must be an integer >= {low}, got {value!r}")
        if len(self.dims) != 2 or not all(_is_int(d) and d >= 2 for d in self.dims):
            raise ConfigInvalid(f"dims must be two integers >= 2, got {self.dims}")
        self.dims = (int(self.dims[0]), int(self.dims[1]))
        try:
            grid = tuple(float(order_array(a)) for a in self.alpha_grid)
            # The scenarios whose methods take a narrower alpha domain.
            if self.scenario == "variational-check":
                check_variational_orders(np.array(grid))
            elif self.scenario == "integral-check":
                for a in grid:
                    check_quadrature_order(a)
        except (InvalidAlpha, TypeError, ValueError) as exc:
            raise ConfigInvalid(str(exc)) from exc
        if not grid:
            raise ConfigInvalid("alpha_grid is empty")
        self.alpha_grid = grid
        unknown = set(self.tolerances or {}) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigInvalid(f"unknown tolerance names {sorted(unknown)}")
        self.tolerances = {**DEFAULT_TOLERANCES, **(self.tolerances or {})}
        for name, value in self.tolerances.items():
            if not (isinstance(value, (int, float)) and 0.0 <= value < np.inf):
                raise ConfigInvalid(f"tolerance {name} must be a finite number >= 0, got {value!r}")
        if (self.rho is None) != (self.sigma is None):
            raise ConfigInvalid("rho and sigma must be supplied together")
        if self.rho is not None:
            if self.scenario != "divergence":
                raise ConfigInvalid(
                    f"rho and sigma are read only by divergence, not {self.scenario}")
            for name, m in (("rho", self.rho), ("sigma", self.sigma)):
                try:
                    DensityMatrix(m)
                except NotPositiveDefinite:
                    pass  # a state below the floor: its trials fail and are recorded
                except (RenyiDpiError, ValueError) as exc:
                    raise ConfigInvalid(f"{name} is not a density matrix: {exc}") from exc
            if np.shape(self.rho) != np.shape(self.sigma):
                raise ConfigInvalid(f"rho and sigma differ in shape: {np.shape(self.rho)} "
                                    f"and {np.shape(self.sigma)}")
        if self.beta_grid is not None and self.scenario not in ("equality-scan", "recovery-test"):
            raise ConfigInvalid(f"beta_grid is read only by equality-scan and recovery-test, "
                                f"not {self.scenario}")
        if self.beta_grid is not None and not np.all(np.isfinite(self.beta_grid)):
            raise ConfigInvalid(f"beta_grid entries must be finite, got {self.beta_grid}")
        return self


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _row_error(trial: int, alpha: float) -> ScanRow:
    return ScanRow(trial=trial, alpha=alpha, dpi_ok=False, saturated=False)


def _divergence_rows(cfg, trial, rng):
    if cfg.rho is not None:
        rho = DensityMatrix(cfg.rho)
        sigma = DensityMatrix(cfg.sigma)
    else:
        rho = random_density(cfg.dims[0], rng)
        sigma = random_density(cfg.dims[0], rng)
    d_rel = relative_entropy(rho, sigma)
    d_sand = sandwiched_renyi(rho, sigma, cfg.alpha_grid)
    d_petz = petz_renyi(rho, sigma, cfg.alpha_grid)
    return [ScanRow(trial=trial, alpha=alpha, d_sand=s, d_petz=p, d_rel=d_rel)
            for alpha, s, p in zip(cfg.alpha_grid, d_sand, d_petz)]


def _dpi_rows(cfg, trial, rng):
    d_a, d_b = cfg.dims
    dim = d_a * d_b
    rho = random_density(dim, rng)
    sigma = random_density(dim, rng)
    # Alternate between the partial trace and a generic Kraus channel.
    if trial % 2 == 0:
        ch = partial_trace_channel(d_a, d_b)
    else:
        ch = random_channel(dim, d_a, rng_seed=rng)
    tol = cfg.tolerances["dpi"]
    gaps = dpi_gap(rho, sigma, ch, cfg.alpha_grid)
    return [ScanRow(trial=trial, alpha=alpha, dpi_gap=gap, dpi_ok=gap >= -tol)
            for alpha, gap in zip(cfg.alpha_grid, gaps)]


def _report_rows(cfg, trial, rho_ab, sigma_ab):
    tol_sat = cfg.tolerances["saturation"]
    tol_dpi = cfg.tolerances["dpi"]
    # An empty beta_grid, like None, means each order's default grid.
    ctx = SaturationContext.build(rho_ab, sigma_ab, cfg.dims, cfg.alpha_grid,
                                  cfg.beta_grid or None)
    rows = []
    for alpha in cfg.alpha_grid:
        report = full_report(ctx, alpha)
        peak = int(np.argmax(report.t3_by_beta))
        res = report.residuals
        rows.append(ScanRow(
            trial=trial, alpha=alpha,
            beta_re=report.beta_grid[peak].real, beta_im=report.beta_grid[peak].imag,
            dpi_gap=res["dpi_gap"], t1=res["t1"], t1_geo=res["t1_geo"],
            t3=res["t3"], petz_beta=res["petz_beta"],
            necessary2=res["necessary2"], commutator=res["commutator"],
            recovery_err=ctx.recovery_error,
            dpi_ok=mutual_implication_ok(report),
            saturated=res["dpi_gap"] <= tol_dpi and report.saturated(tol_sat),
        ))
    return rows


def _equality_rows(cfg, trial, rng):
    dim = cfg.dims[0] * cfg.dims[1]
    rho_ab = random_density(dim, rng)
    sigma_ab = random_density(dim, rng)
    return _report_rows(cfg, trial, rho_ab, sigma_ab)


def _recovery_rows(cfg, trial, rng):
    kind = RECOVERABLE_KINDS[trial % len(RECOVERABLE_KINDS)]
    rho_ab, sigma_ab = build_recoverable_triple(kind, cfg.dims, rng)
    return _report_rows(cfg, trial, rho_ab, sigma_ab)


def _variational_rows(cfg, trial, rng):
    rho = random_density(cfg.dims[0], rng)
    sigma = random_density(cfg.dims[0], rng)
    tol_v = cfg.tolerances["variational_value"]
    tol_s = cfg.tolerances["variational_state"]
    opt_cfg = OptimizerConfig(restarts=cfg.restarts, seed=0)
    d_sand = sandwiched_renyi(rho, sigma, cfg.alpha_grid)
    values, omegas = variational_value(rho, sigma, cfg.alpha_grid, opt_cfg)
    rows = []
    for alpha, sand, value, omega in zip(cfg.alpha_grid, d_sand, values, omegas):
        closed = closed_form_optimizer(rho, sigma, alpha)
        gap = abs(value - closed.value)
        dist = trace_distance(omega, closed.omega_star)
        rows.append(ScanRow(
            trial=trial, alpha=alpha,
            d_sand=sand, dpi_gap=gap, recovery_err=dist,
            dpi_ok=gap <= tol_v and dist <= tol_s,
        ))
    return rows


def _integral_rows(cfg, trial, rng):
    # Positive-definite test matrix with eigenvalues of order one.
    m = random_density(cfg.dims[0], rng).matrix * cfg.dims[0]
    tol = cfg.tolerances["integral"]
    resids = integral_representation_check(m, cfg.alpha_grid)
    return [ScanRow(trial=trial, alpha=alpha, dpi_gap=resid, dpi_ok=resid <= tol)
            for alpha, resid in zip(cfg.alpha_grid, resids)]


_SCENARIO_RUNNERS = {
    "divergence": _divergence_rows,
    "dpi-scan": _dpi_rows,
    "equality-scan": _equality_rows,
    "recovery-test": _recovery_rows,
    "variational-check": _variational_rows,
    "integral-check": _integral_rows,
}


def _run_trial(config: ExperimentConfig, trial: int):
    # Each trial derives its own stream from (seed, trial), so its rows do
    # not depend on which trials ran before it.
    rng = stream(config.seed, trial)
    runner = _SCENARIO_RUNNERS[config.scenario]
    try:
        return runner(config, trial, rng), None
    except (RenyiDpiError, ValueError, np.linalg.LinAlgError) as exc:
        rows = [_row_error(trial, alpha) for alpha in config.alpha_grid]
        return rows, {"trial": trial, "error": f"{type(exc).__name__}: {exc}"}


def run(config: ExperimentConfig) -> tuple[list[ScanRow], dict]:
    """Execute a scan; deterministic for a fixed seed.

    Trials run serially in trial order. A failing trial produces flagged
    rows (dpi_ok False) and an entry in the summary's error list instead
    of aborting the scan.
    """
    config.validate()
    started = time.perf_counter()
    rows: list[ScanRow] = []
    errors: list[dict] = []
    for trial in range(config.trials):
        trial_rows, error = _run_trial(config, trial)
        rows.extend(trial_rows)
        if error is not None:
            errors.append(error)
    max_violation = max(max((-r.dpi_gap for r in rows), default=0.0), 0.0)
    # Over every row whose gap closes, whether or not its residuals pass:
    # the saturation-equivalent families, without the stronger commutator.
    tol_dpi = config.tolerances["dpi"]
    max_sat_residual = max(
        (max(r.t1, r.t1_geo, r.t3, r.petz_beta, r.necessary2)
         for r in rows if r.dpi_gap <= tol_dpi),
        default=0.0,
    )
    if config.scenario == "recovery-test":
        passed = all(r.saturated for r in rows) and not errors
    else:
        passed = all(r.dpi_ok for r in rows) and not errors
    summary = {
        "scenario": config.scenario,
        "seed": config.seed,
        "dims": list(config.dims),
        "trials": config.trials,
        "alpha_grid": list(config.alpha_grid),
        "tolerances": config.tolerances,
        "rows": len(rows),
        "errors": errors,
        "max_dpi_violation": float(max_violation) if config.scenario == "dpi-scan" else 0.0,
        "max_saturating_residual": float(max_sat_residual),
        "pass": bool(passed),
        "runtime_s": round(time.perf_counter() - started, 3),
    }
    return rows, summary


def emit(rows: list[ScanRow], fmt: str, path: str) -> None:
    """Write rows as CSV (fixed header) or JSON (array of row objects)."""
    if fmt not in ("csv", "json"):
        raise ConfigInvalid(f"format must be csv or json, got {fmt!r}")
    try:
        with open(path, "w", newline="") as handle:
            if fmt == "csv":
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(CSV_COLUMNS)
                for row in rows:
                    writer.writerow([getattr(row, c) for c in CSV_COLUMNS])
            else:
                json.dump([asdict(row) for row in rows], handle, indent=2)
                handle.write("\n")
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc


def read_rows(path: str, fmt: str) -> list[ScanRow]:
    """Read back a report; inverse of emit."""
    try:
        if fmt == "csv":
            with open(path, newline="") as handle:
                reader = csv.DictReader(handle)
                return [ScanRow(**{
                    k: (v == "True" if k in ("dpi_ok", "saturated")
                        else int(v) if k == "trial" else float(v))
                    for k, v in raw.items()
                }) for raw in reader]
        if fmt == "json":
            with open(path) as handle:
                return [ScanRow(**raw) for raw in json.load(handle)]
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    raise ConfigInvalid(f"format must be csv or json, got {fmt!r}")


def _listed(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON list, got {type(value).__name__}")
    return value


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} entries must be numbers, got {value!r}")
    return value


def _complex_pair(value) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"beta_grid entries must be [re, im] pairs, got {value!r}")
    return complex(_number(value[0], "beta_grid"), _number(value[1], "beta_grid"))


def _dims_flag(text: str) -> tuple[int, int]:
    try:
        d_a, d_b = (int(part) for part in text.split("x"))
    except ValueError as exc:
        raise ConfigInvalid(f"dims must look like 2x2, got {text!r}") from exc
    return (d_a, d_b)


def _apply_config_file(cfg: ExperimentConfig, data: dict, seed_flag) -> None:
    # The config file overrides flags, except for --seed.
    if "seed" in data and seed_flag is None:
        cfg.seed = data["seed"]
    if "dims" in data:
        cfg.dims = tuple(_listed(data, "dims"))
    if "alpha_grid" in data:
        cfg.alpha_grid = tuple(_number(a, "alpha_grid") for a in _listed(data, "alpha_grid"))
    if "beta_grid" in data:
        cfg.beta_grid = tuple(_complex_pair(b) for b in _listed(data, "beta_grid"))
    if "trials" in data:
        cfg.trials = data["trials"]
    if "tolerances" in data:
        tol = data["tolerances"]
        if not isinstance(tol, dict):
            raise TypeError(f"tolerances must be a JSON object, got {type(tol).__name__}")
        cfg.tolerances = {k: _number(v, "tolerances") for k, v in tol.items()}
    if "restarts" in data:
        cfg.restarts = data["restarts"]
    if "rho" in data:
        cfg.rho = matrix_from_json(data["rho"])
    if "sigma" in data:
        cfg.sigma = matrix_from_json(data["sigma"])


def _load_config(args) -> tuple[ExperimentConfig, str, str | None]:
    """Build the validated config from the flags and the optional JSON file.

    Every malformed input, flag or file field, raises ConfigInvalid, so
    the CLI exits 2 rather than with a traceback.
    """
    cfg = ExperimentConfig(scenario=args.scenario)
    if args.trials is not None:
        cfg.trials = args.trials
    if args.dims is not None:
        cfg.dims = _dims_flag(args.dims)
    if args.seed is not None:
        cfg.seed = args.seed
    file_format, file_out = None, None
    if args.config:
        try:
            with open(args.config) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise IoFailure(f"could not read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid(f"config must be a JSON object, got {type(data).__name__}")
        if data.get("scenario", args.scenario) != args.scenario:
            raise ConfigInvalid(
                f"config scenario {data['scenario']!r} contradicts subcommand {args.scenario!r}"
            )
        try:
            _apply_config_file(cfg, data, args.seed)
        except (TypeError, ValueError, KeyError, DimensionMismatch) as exc:
            raise ConfigInvalid(f"malformed config: {exc}") from exc
        file_format = data.get("format")
        if file_format is not None and file_format not in ("csv", "json"):
            raise ConfigInvalid(f"format must be csv or json, got {file_format!r}")
        file_out = data.get("out")
        if file_out is not None and not isinstance(file_out, str):
            raise ConfigInvalid(f"out must be a path string, got {file_out!r}")
    cfg.validate()
    fmt = file_format or args.format
    out = file_out or args.out
    return cfg, fmt, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="renyidpi",
        description="Randomized scans of Renyi-divergence data processing and its saturation conditions.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config; overrides flags except --seed")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="report path; omit to skip the report file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--dims", help="bipartite dims as dAxdB, e.g. 2x2")
    args = parser.parse_args(argv)
    try:
        cfg, fmt, out = _load_config(args)
        rows, summary = run(cfg)
        if out:
            emit(rows, fmt, out)
    except ConfigInvalid as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IoFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(summary, indent=2))
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
