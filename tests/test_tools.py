import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scan_diff_of_a_tree_against_itself_is_clean():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scan_diff.py"), str(ROOT), str(ROOT),
         "--dims", "2x2", "--seeds", "1", "--trials", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "6 scans compared: identical" in done.stdout


def _scan_diff():
    spec = importlib.util.spec_from_file_location("scan_diff", ROOT / "tools" / "scan_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_separates_roundoff_from_verdicts():
    tool = _scan_diff()
    header = "trial,alpha,dpi_gap,dpi_ok\n"
    old = {"s": {"csv": header + "0,0.5,1.0,True\n", "summary": {"errors": []}}}
    roundoff = {"s": {"csv": header + "0,0.5,1.5,True\n", "summary": {"errors": []}}}
    report = tool.compare(old, roundoff)
    assert not report.verdict
    assert report.changes[("s", "dpi_gap")] == [1, 0.5, 0.5]
    flipped = {"s": {"csv": header + "0,0.5,1.0,False\n", "summary": {"errors": []}}}
    assert tool.compare(old, flipped).verdict
    errored = {"s": {"csv": header + "0,0.5,1.0,True\n", "summary": {"errors": [{"trial": 0}]}}}
    assert tool.compare(old, errored).verdict


def test_every_traced_name_resolves_in_the_package():
    # The traced benchmark wraps these names; a rename in the package
    # would otherwise surface only as a failed traced run.
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, name) for mod, listed in tracer.SPANNED.items() for name in listed]
    names.append(("linalg", tracer.APPLY))
    for mod_name, name in names:
        module = importlib.import_module(f"renyidpi.{mod_name}")
        owner, _, method = name.partition(".")
        assert hasattr(module, owner), f"{mod_name}.{owner}"
        if not method and isinstance(getattr(module, owner), type):
            method = "__init__"
        if method:
            assert method in vars(getattr(module, owner)), f"{mod_name}.{name}"
