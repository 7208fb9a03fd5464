"""Workloads of the scan benchmark and the one scan they are made of.

A scan is what `renyidpi <scenario> --out report.csv` does after the
interpreter has started: `cli.run` on a seeded config, then `cli.emit` of
its rows to a CSV file. Every workload is a closed loop of such scans from
one thread; scan i of a run with seed s uses the config seed s + i
and the scenario at position i of the workload's rotation.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

DEFAULT_ALPHAS = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9)


class MissingProgram(RuntimeError):
    """The checkout has no importable renyidpi package under src/."""


def load_program():
    """Import renyidpi from this checkout's src/ and return its cli module.

    Refuses a renyidpi installed elsewhere, so the benchmark always
    measures the source next to it.
    """
    package = SRC / "renyidpi"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no renyidpi package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import renyidpi
    from renyidpi import cli

    if Path(renyidpi.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"renyidpi was imported from {renyidpi.__file__}, not {package}")
    return cli


class CheckFailed(RuntimeError):
    """A correctness check of the benchmark failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    rotation: tuple[str, ...]
    trials: tuple[int, ...]          # trials per scan, one entry per rotation slot
    dims: tuple[int, int]
    alpha_grid: tuple[float, ...]
    trace_cycles: int                # rotation cycles in each pass of the traced run
    must_run: tuple[str, ...]        # wrapped functions the traced run must see

    @property
    def cycle(self) -> int:
        return len(self.rotation)

    def config(self, cli, index: int, seed: int):
        slot = index % self.cycle
        return cli.ExperimentConfig(
            scenario=self.rotation[slot], seed=seed + index, dims=self.dims,
            trials=self.trials[slot], alpha_grid=self.alpha_grid,
        )

    def warm_up(self, cli, seed: int, path: Path) -> None:
        """One untimed scan per scenario: one trial at the first alpha.

        It pays for imports and the first LAPACK/BLAS calls at the
        workload's dims, which every user of the CLI pays once.
        """
        for scenario in dict.fromkeys(self.rotation):
            cfg = cli.ExperimentConfig(scenario=scenario, seed=seed, dims=self.dims,
                                       trials=1, alpha_grid=self.alpha_grid[:1])
            rows, _ = cli.run(cfg)
            cli.emit(rows, "csv", str(path))

    def describe(self) -> dict:
        return {
            "scenarios": list(self.rotation),
            "trials_per_scan": list(self.trials),
            "dims": f"{self.dims[0]}x{self.dims[1]}",
            "alpha_grid": list(self.alpha_grid),
        }


_SATURATION_MUST_RUN = (
    "linalg.matrix_power_psd", "linalg.hermitian_eig", "linalg.product_power",
    "quantum.DensityMatrix", "quantum.DensityMatrix.power",
    "quantum.KrausChannel.apply_density", "quantum.random_density",
    "modular.jensen_commutator_norm", "modular.CompressionIsometry",
    "divergence.sandwiched_renyi", "divergence.dpi_gap",
    "equality.full_report", "equality.t3_residual", "equality.petz_beta_residual",
    "equality.t1_residual", "equality.t1_geo_residual", "equality.necessary1_residual",
    "equality.necessary2_residual", "equality.recovery_error",
    "equality.build_recoverable_triple", "cli.run", "cli.emit",
)

# Why each workload exists is recorded in BENCHMARK.json. Four trials per
# saturation scan give cli.run's pool its default width of four threads.
WORKLOADS = {
    w.name: w for w in (
        # full_report is bound by per-call overhead here (~127 eigh per report).
        Workload(
            name="saturation-2x2",
            rotation=("equality-scan", "recovery-test"), trials=(4, 4), dims=(2, 2),
            alpha_grid=DEFAULT_ALPHAS, trace_cycles=2, must_run=_SATURATION_MUST_RUN,
        ),
        # The same equality code on 256x256 super-operators: dense BLAS dominates.
        Workload(
            name="saturation-4x4",
            rotation=("equality-scan", "recovery-test"), trials=(4, 4), dims=(4, 4),
            alpha_grid=DEFAULT_ALPHAS, trace_cycles=1, must_run=_SATURATION_MUST_RUN,
        ),
        # One trial per scan keeps enough scans in a run for a tail; alpha=0.9
        # stays in the grid, where closed_form_optimizer fails on most trials.
        Workload(
            name="variational-d2",
            rotation=("variational-check",), trials=(1,), dims=(2, 2),
            alpha_grid=DEFAULT_ALPHAS, trace_cycles=2,
            must_run=("linalg.matrix_power_psd", "linalg.hermitian_eig",
                      "quantum.DensityMatrix", "quantum.DensityMatrix.power",
                      "quantum.random_density", "modular.quadratic_form",
                      "divergence.variational_value", "divergence.closed_form_optimizer",
                      "divergence.sandwiched_renyi", "cli.run", "cli.emit"),
        ),
        # Trial counts give the three scenarios comparable shares of the time.
        Workload(
            name="closed-form-mix",
            rotation=("divergence", "dpi-scan", "integral-check"), trials=(200, 100, 4),
            dims=(2, 2), alpha_grid=DEFAULT_ALPHAS, trace_cycles=1,
            must_run=("linalg.matrix_power_psd", "linalg.hermitian_eig",
                      "quantum.DensityMatrix", "quantum.DensityMatrix.power",
                      "quantum.KrausChannel.apply_density", "quantum.random_density",
                      "divergence.sandwiched_renyi", "divergence.petz_renyi",
                      "divergence.relative_entropy", "divergence.dpi_gap",
                      "divergence.integral_power_quadrature", "cli.run", "cli.emit"),
        ),
    )
}


@dataclass(frozen=True)
class Scan:
    """Outcome of one scan: its wall time and what its rows say."""

    index: int
    scenario: str
    seconds: float
    rows: int
    failed_rows: int
    csv_bytes: int
    digest: str


def run_scan(cli, workload: Workload, index: int, seed: int, path: Path) -> Scan:
    """Time cli.run + cli.emit for scan `index`, then read its output.

    A row fails when its trial raised (it is in the summary's errors) or
    when the scenario's own verdict on it is false: `saturated` for
    recovery-test, `dpi_ok` otherwise. Raises CheckFailed when the scan
    returned or wrote the wrong number of rows.
    """
    cfg = workload.config(cli, index, seed)
    started = time.perf_counter()
    rows, summary = cli.run(cfg)
    cli.emit(rows, "csv", str(path))
    seconds = time.perf_counter() - started

    data = path.read_bytes()
    expected = cfg.trials * len(cfg.alpha_grid)
    lines = data.count(b"\n")
    if len(rows) != expected or lines != expected + 1:
        raise CheckFailed(f"{workload.name} scan {index} ({cfg.scenario}, seed {cfg.seed}): "
                          f"{len(rows)} rows and {lines} CSV lines, expected {expected} rows")
    error_trials = {error["trial"] for error in summary["errors"]}
    verdict = "saturated" if cfg.scenario == "recovery-test" else "dpi_ok"
    failed = sum(1 for r in rows if r.trial in error_trials or not getattr(r, verdict))
    return Scan(index=index, scenario=cfg.scenario, seconds=seconds, rows=len(rows),
                failed_rows=failed, csv_bytes=len(data),
                digest=hashlib.sha256(data).hexdigest())
