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
