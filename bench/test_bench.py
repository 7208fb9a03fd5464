"""Tests of the scan benchmark itself, run at the smallest workload sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
from workloads import WORKLOADS, load_program

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BASELINE = json.loads((BENCH / "baseline.json").read_text())


def tiny(workload):
    """The same workload at the smallest size: one trial, two alphas, one cycle."""
    return replace(workload, trials=(1,) * workload.cycle,
                   alpha_grid=workload.alpha_grid[-2:], trace_cycles=1)


@pytest.fixture
def catalog(monkeypatch):
    """Swap in workloads of the given sizes; one set-up probe per run."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)

    def use(workloads):
        monkeypatch.setattr(run, "WORKLOADS", {w.name: w for w in workloads})

    return use


def bench(capsys, workload: str, trace: int):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    return lines, json.loads(lines[-1]), out.err


def assert_printed(lines, result, specs):
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], float)
        assert any(line.split()[::2] == [spec["name"], spec["unit"]] for line in lines[:-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(catalog, capsys, name):
    catalog([tiny(w) for w in WORKLOADS.values()])
    lines, result, err = bench(capsys, name, trace=0)
    assert result["correct"], err
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_SCANS
    assert_printed(lines, result, SPEC["end_to_end"])
    assert any(line.split()[::2] == ["fail_ratio", "1"] for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_passes_its_self_check(catalog, capsys, name):
    catalog([tiny(w) for w in WORKLOADS.values()])
    lines, result, err = bench(capsys, name, trace=1)
    assert result["correct"], err
    assert_printed(lines, result, SPEC["per_layer"])


@pytest.mark.parametrize("name,metric", [
    ("saturation-2x2", "equality.full_report.eigh_per_call"),
    ("closed-form-mix", "divergence.integral_power_quadrature.inv_per_call"),
])
def test_counts_match_the_recorded_baseline(catalog, capsys, name, metric):
    # One trial per scan on the full alpha grid: the per-call counts do not
    # depend on the trial count.
    workload = WORKLOADS[name]
    catalog([replace(workload, trials=(1,) * workload.cycle, trace_cycles=1)])
    _, result, err = bench(capsys, name, trace=1)
    assert result["correct"], err
    assert result["metrics"][metric]["value"] == BASELINE["counts"][metric]


def test_missing_wrapped_call_fails_the_self_check(catalog, capsys):
    small = tiny(WORKLOADS["saturation-2x2"])
    catalog([replace(small, must_run=small.must_run + ("divergence.variational_value",))])
    _, result, err = bench(capsys, "saturation-2x2", trace=1)
    assert not result["correct"]
    assert "saw no calls: divergence.variational_value" in err


def test_result_changing_wrapper_trips_the_digest_check(catalog, capsys, monkeypatch):
    class Perturbing(tracer.Tracer):
        def wrap(self, fn, name, anchor=False):
            traced = super().wrap(fn, name, anchor)
            if name != "divergence.sandwiched_renyi":
                return traced
            return lambda *args, **kwargs: traced(*args, **kwargs) * (1.0 + 1e-9)

    monkeypatch.setattr(run, "Tracer", Perturbing)
    catalog([tiny(w) for w in WORKLOADS.values()])
    _, result, err = bench(capsys, "closed-form-mix", trace=1)
    assert not result["correct"]
    assert "traced CSV digest differs" in err


def test_unknown_wrapped_name_fails_the_run_and_unwraps(catalog, capsys, monkeypatch):
    spanned = dict(tracer.SPANNED, cli=tracer.SPANNED["cli"] + ("no_such_function",))
    monkeypatch.setattr(tracer, "SPANNED", spanned)
    catalog([tiny(w) for w in WORKLOADS.values()])
    cli = load_program()
    originals = (cli.run, cli.emit, np.kron, np.linalg.eigh)
    _, result, err = bench(capsys, "closed-form-mix", trace=1)
    assert not result["correct"]
    assert "cannot wrap the program" in err
    assert all(a is b for a, b in zip(originals, (cli.run, cli.emit, np.kron, np.linalg.eigh)))


def test_remove_restores_every_attribute():
    cli = load_program()
    package = sys.modules["renyidpi"]
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "renyidpi"]
    owners += [np, np.linalg, package.quantum.DensityMatrix, package.quantum.KrausChannel,
               package.linalg.SpectralDecomposition, package.modular.CompressionIsometry]
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    t.install(package)
    assert cli.run is not before[owners.index(cli)]["run"]
    assert t.remove() == []
    for owner, snapshot in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in snapshot.items()), owner


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "saturation-2x2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
