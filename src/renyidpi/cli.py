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

Every scenario has one runner in _RUNNERS, called as (cfg, trials, rng),
and returns its rows through one row builder. Trials run in blocks of at
most TRIAL_BLOCK, and each trial draws from its own stream(seed, trial).
divergence, dpi-scan, equality-scan and recovery-test group a block's
trials and run each group in one stacked pass: rng is the list of the
group's generators, and each library call takes the group's stack of
states, so the rows equal those of one-trial runs bit for bit. A
saturation group holds at most SATURATION_ENTRIES entries of its
largest stack, which bounds the pass's memory (one trial per pass at
4x4 on the default grids). variational-check and integral-check, and a
group whose stacked pass raises, run trial by trial with a lone
generator, so a failing trial is recorded alone, with the error of its
own run.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter

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
    default_beta_grid,
    full_report,
    mutual_implication_ok,
)

SCENARIOS = ("divergence", "dpi-scan", "equality-scan", "recovery-test",
             "variational-check", "integral-check")

CSV_COLUMNS = ("trial", "alpha", "beta_re", "beta_im", "d_sand", "d_petz", "d_rel",
               "dpi_gap", "t1", "t1_geo", "t3", "petz_beta", "necessary2",
               "commutator", "recovery_err", "dpi_ok", "saturated")

_FLOAT_COLUMNS = CSV_COLUMNS[1:-2]

# Most trials evaluated in one stacked pass; bounds a block's memory.
TRIAL_BLOCK = 64

# Most entries, n_alpha * n_beta * d^2 per trial, of the largest stack in
# one saturation pass: one 4x4 trial on the default grids. The stacked
# build's memory grows with this product, so 4x4 runs one trial per pass.
SATURATION_ENTRIES = 10 * 9 * 16**2

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
        fields = self.__dict__
        self.trial = int(self.trial)
        for name in _FLOAT_COLUMNS:
            value = fields[name] = float(fields[name])
            if not math.isfinite(value):
                raise ValueError(f"row field {name} is not finite")
        self.dpi_ok = bool(self.dpi_ok)
        self.saturated = bool(self.saturated)


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


# The columns after (trial, alpha): each one's place in a row, and its default.
_COLUMN_INDEX = {f.name: i for i, f in enumerate(fields(ScanRow)[2:])}
_COLUMN_DEFAULTS = [f.default for f in fields(ScanRow)[2:]]


def _grid_rows(cfg, trials, **columns):
    # One ScanRow per (trial, alpha), trial-major; columns not given keep
    # their defaults. Each column's last axis runs over the alpha grid (or
    # has length 1); a stacked column leads with the trials, and an
    # unstacked one holds for every trial. The cells pass through one
    # float grid; ScanRow casts the two flag columns back to bool.
    grid = np.empty((len(trials), len(cfg.alpha_grid), len(_COLUMN_DEFAULTS)))
    grid[...] = _COLUMN_DEFAULTS
    for name, value in columns.items():
        grid[..., _COLUMN_INDEX[name]] = value
    keys = [(trial, alpha) for trial in trials for alpha in cfg.alpha_grid]
    return [ScanRow(*key, *row) for key, row in zip(keys, grid.reshape(len(keys), -1).tolist())]


def _divergence_rows(cfg, trials, rng):
    if cfg.rho is not None:
        # The user's pair is every trial's pair: evaluated once, its rows
        # repeat for each trial.
        rho = DensityMatrix(cfg.rho)
        sigma = DensityMatrix(cfg.sigma)
    else:
        rho = random_density(cfg.dims[0], rng)
        sigma = random_density(cfg.dims[0], rng)
    d_rel = np.expand_dims(relative_entropy(rho, sigma), -1)
    return _grid_rows(cfg, trials, d_sand=sandwiched_renyi(rho, sigma, cfg.alpha_grid),
                      d_petz=petz_renyi(rho, sigma, cfg.alpha_grid), d_rel=d_rel)


def _dpi_rows(cfg, trials, rng):
    # The trials share a parity (see _RUNNERS).
    d_a, d_b = cfg.dims
    dim = d_a * d_b
    rho = random_density(dim, rng)
    sigma = random_density(dim, rng)
    # Alternate between the partial trace and a generic Kraus channel.
    if trials[0] % 2 == 0:
        ch = partial_trace_channel(d_a, d_b)
    else:
        ch = random_channel(dim, d_a, rng_seed=rng)
    gaps = dpi_gap(rho, sigma, ch, cfg.alpha_grid)
    return _grid_rows(cfg, trials, dpi_gap=gaps, dpi_ok=gaps >= -cfg.tolerances["dpi"])


def _report_rows(cfg, trials, rho_ab, sigma_ab, recovery=None):
    tol_sat = cfg.tolerances["saturation"]
    tol_dpi = cfg.tolerances["dpi"]
    # An empty beta_grid, like None, means each order's default grid.
    ctx = SaturationContext.build(rho_ab, sigma_ab, cfg.dims, cfg.alpha_grid,
                                  cfg.beta_grid or None, recovery)
    views = [ctx.trial(t) for t in range(len(trials))] if rho_ab.batch else [ctx]
    # One full_report per (trial, alpha); each column leads with the trials.
    reports = [[full_report(view, alpha) for alpha in cfg.alpha_grid] for view in views]
    peaks = [[r.beta_grid[int(np.argmax(r.t3_by_beta))] for r in rs] for rs in reports]
    return _grid_rows(
        cfg, trials, beta_re=np.real(peaks), beta_im=np.imag(peaks),
        **{name: [[r.residuals[name] for r in rs] for rs in reports]
           for name in ("dpi_gap", "t1", "t1_geo", "t3", "petz_beta", "necessary2", "commutator")},
        recovery_err=[[view.recovery_error] for view in views],
        dpi_ok=[[mutual_implication_ok(r) for r in rs] for rs in reports],
        saturated=[[r.residuals["dpi_gap"] <= tol_dpi and r.saturated(tol_sat) for r in rs]
                   for rs in reports],
    )


def _equality_rows(cfg, trials, rng):
    dim = cfg.dims[0] * cfg.dims[1]
    rho_ab = random_density(dim, rng)
    sigma_ab = random_density(dim, rng)
    return _report_rows(cfg, trials, rho_ab, sigma_ab)


def _recovery_rows(cfg, trials, rng):
    kinds = [RECOVERABLE_KINDS[t % len(RECOVERABLE_KINDS)] for t in trials]
    pair = build_recoverable_triple(kinds if isinstance(rng, list) else kinds[0], cfg.dims, rng)
    return _report_rows(cfg, trials, pair.rho_ab, pair.sigma_ab, pair.recovery_error)


def _saturation_pass(cfg) -> int:
    """Trials per stacked saturation pass: as many as keep the largest
    stack within SATURATION_ENTRIES, and at least one."""
    n_beta = len(cfg.beta_grid or default_beta_grid(0.5))
    per_trial = len(cfg.alpha_grid) * n_beta * (cfg.dims[0] * cfg.dims[1]) ** 2
    return max(1, SATURATION_ENTRIES // per_trial)


def _variational_rows(cfg, trials, rng):
    rho = random_density(cfg.dims[0], rng)
    sigma = random_density(cfg.dims[0], rng)
    opt_cfg = OptimizerConfig(restarts=cfg.restarts, seed=0)
    d_sand = sandwiched_renyi(rho, sigma, cfg.alpha_grid)
    values, omegas = variational_value(rho, sigma, cfg.alpha_grid, opt_cfg)
    closed = [closed_form_optimizer(rho, sigma, alpha) for alpha in cfg.alpha_grid]
    gap = np.abs(values - [c.value for c in closed])
    dist = np.array([trace_distance(omega, c.omega_star) for omega, c in zip(omegas, closed)])
    return _grid_rows(cfg, trials, d_sand=d_sand, dpi_gap=gap, recovery_err=dist,
                      dpi_ok=(gap <= cfg.tolerances["variational_value"])
                      & (dist <= cfg.tolerances["variational_state"]))


def _integral_rows(cfg, trials, rng):
    # Positive-definite test matrix with eigenvalues of order one.
    m = random_density(cfg.dims[0], rng).matrix * cfg.dims[0]
    resids = integral_representation_check(m, cfg.alpha_grid)
    return _grid_rows(cfg, trials, dpi_gap=resids, dpi_ok=resids <= cfg.tolerances["integral"])


# Each scenario's runner, (cfg, trials, rng), and the key of a trial's
# stacked group, (cfg, trial), or None to run every trial alone. Given one
# generator per trial of a group, a runner makes each library call once on
# the group's stack of states; given a lone generator, it runs its one
# trial through the one-state calls. dpi-scan's even trials go through
# Tr_B, its odd ones through random Kraus channels; the saturation
# scenarios group consecutive trials, _saturation_pass(cfg) at a time.
_RUNNERS = {
    "divergence": (_divergence_rows, lambda cfg, trial: 0),
    "dpi-scan": (_dpi_rows, lambda cfg, trial: trial % 2),
    "equality-scan": (_equality_rows, lambda cfg, trial: trial // _saturation_pass(cfg)),
    "recovery-test": (_recovery_rows, lambda cfg, trial: trial // _saturation_pass(cfg)),
    "variational-check": (_variational_rows, None),
    "integral-check": (_integral_rows, None),
}

_TRIAL_ERRORS = (RenyiDpiError, ValueError, np.linalg.LinAlgError)


def _run_block(config: ExperimentConfig, trials: list[int]):
    # Rows of the trials, in trial order, and their error records. Each
    # trial derives its own stream from (seed, trial), so its rows do not
    # depend on which trials ran before it or beside it.
    runner, group_of = _RUNNERS[config.scenario]
    if group_of is not None:
        try:
            rows = []
            keys = [group_of(config, t) for t in trials]
            for key in dict.fromkeys(keys):
                group = [t for t, k in zip(trials, keys) if k == key]
                rngs = [stream(config.seed, t) for t in group]
                # A group of one takes the one-state calls: same rows, less work.
                rows += runner(config, group, rngs if len(group) > 1 else rngs[0])
            return sorted(rows, key=attrgetter("trial")), []
        except _TRIAL_ERRORS:
            pass  # run trial by trial: a failure is then its own trial's record
    rows, errors = [], []
    for trial in trials:
        try:
            rows += runner(config, [trial], stream(config.seed, trial))
        except _TRIAL_ERRORS as exc:
            rows += _grid_rows(config, [trial], dpi_ok=False)
            errors.append({"trial": trial, "error": f"{type(exc).__name__}: {exc}"})
    return rows, errors


def run(config: ExperimentConfig) -> tuple[list[ScanRow], dict]:
    """Execute a scan; deterministic for a fixed seed.

    Trials run serially in trial order, in blocks of at most TRIAL_BLOCK
    (all of them for divergence on a user pair, which is evaluated once).
    A failing trial produces flagged rows (dpi_ok False) and an entry in
    the summary's error list instead of aborting the scan.
    """
    config.validate()
    started = time.perf_counter()
    rows: list[ScanRow] = []
    errors: list[dict] = []
    block = config.trials if config.rho is not None else TRIAL_BLOCK
    for start in range(0, config.trials, block):
        block_rows, block_errors = _run_block(
            config, list(range(start, min(start + block, config.trials))))
        rows.extend(block_rows)
        errors.extend(block_errors)
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
                writer.writerows(map(attrgetter(*CSV_COLUMNS), rows))
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
