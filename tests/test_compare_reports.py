"""scripts/compare_reports.py on two synthetic report directories."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def _check(name, max_res, mean_res, passed=True, as_expected=True):
    return {"name": name, "max_residual": max_res, "mean_residual": mean_res,
            "pass": passed, "as_expected": as_expected, "expected": "pass",
            "tolerance": 1e-6}


def _write(d: Path, fname: str, checks: list[dict], extras: dict | None = None) -> None:
    d.mkdir(exist_ok=True)
    (d / fname).write_text(json.dumps({"checks": checks, "extras": extras or {}}))


def _run(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_identical_verdicts_report_movement(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "r.json", [_check("killing", 2e-8, 1e-8), _check("tangency", 0.0, 0.0)])
    _write(b, "r.json", [_check("killing", 3e-8, 1e-8), _check("tangency", 0.0, 0.0)])
    proc = _run(a, b)
    assert proc.returncode == 0, proc.stdout
    line = next(ln for ln in proc.stdout.splitlines() if "killing" in ln)
    # max moved by 1e-8 absolute, 0.5 relative; mean did not move
    assert line.split()[-4:] == ["1.00e-08", "5.00e-01", "0.00e+00", "0.00e+00"]
    assert "verdicts identical" in proc.stdout


def test_verdict_change_exits_one(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "r.json", [_check("killing", 2e-8, 1e-8)])
    _write(b, "r.json", [_check("killing", 2e-5, 1e-5, passed=False, as_expected=False)])
    proc = _run(a, b)
    assert proc.returncode == 1
    assert "VERDICT CHANGED" in proc.stdout


def test_missing_report_or_check_exits_one(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "r.json", [_check("killing", 1e-8, 1e-8), _check("wedge", 1e-8, 1e-8)])
    _write(b, "r.json", [_check("killing", 1e-8, 1e-8)])
    _write(a, "only_a.json", [_check("killing", 1e-8, 1e-8)])
    proc = _run(a, b)
    assert proc.returncode == 1
    assert "only_a.json: only in" in proc.stdout
    assert "pass/ok -> missing" in proc.stdout


def test_movement_per_tolerance_column(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    # a rounding move on a residual near zero: half of it relative, but only
    # 6e-10 of the 1e-6 tolerance that decides the verdict
    _write(a, "r.json", [_check("squares", 1.2e-15, 4e-16), _check("tangency", 0.0, 0.0)])
    _write(b, "r.json", [_check("squares", 1.8e-15, 5e-16), _check("tangency", 0.0, 0.0)])
    proc = _run(a, b)
    assert proc.returncode == 0, proc.stdout
    header = next(ln for ln in proc.stdout.splitlines() if "verdict A -> B" in ln)
    cols = header.split()
    assert cols.index("move/tol") < cols.index("max")
    rows = {ln.split()[0]: ln.split() for ln in proc.stdout.splitlines()
            if ln.startswith("  ") and "->" in ln and "verdict" not in ln}
    # move/tol, max abs, max rel, mean abs, mean rel
    assert rows["squares"][-5:] == ["6.00e-10", "6.00e-16", "5.00e-01", "1.00e-16", "2.50e-01"]
    assert rows["tangency"][-5] == "0.00e+00"


def test_check_order_change_exits_one(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "r.json", [_check("killing", 2e-8, 1e-8), _check("tangency", 0.0, 0.0)])
    _write(b, "r.json", [_check("tangency", 0.0, 0.0), _check("killing", 2e-8, 1e-8)])
    proc = _run(a, b)
    assert proc.returncode == 1, proc.stdout
    assert "CHECK ORDER CHANGED: ['killing', 'tangency'] -> ['tangency', 'killing']" in proc.stdout
    assert "VERDICT CHANGED" not in proc.stdout


def _probe(return_times, min_distance, table="g0: 5"):
    return {"orbit_probe": {"return_times": return_times, "min_distance": min_distance,
                            "returns": len(return_times)},
            "table": table, "blocks": [[0.0, 5]]}


def test_extras_numeric_leaves_report_their_move(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "r.json", [_check("killing", 2e-8, 1e-8)], _probe([6.0, 12.0], 4e-4))
    _write(b, "r.json", [_check("killing", 2e-8, 1e-8)], _probe([6.0, 12.003], 3e-4))
    proc = _run(a, b)
    assert proc.returncode == 0, proc.stdout
    leaves = {ln.split()[0]: ln.split()[1:] for ln in proc.stdout.splitlines()
              if ln.startswith("  extras.")}
    assert leaves["extras.orbit_probe.return_times[0]"] == ["0.00e+00", "0.00e+00"]
    assert leaves["extras.orbit_probe.return_times[1]"] == ["3.00e-03", "2.50e-04"]
    assert leaves["extras.orbit_probe.min_distance"] == ["1.00e-04", "2.50e-01"]
    assert leaves["extras.blocks[0][1]"] == ["0.00e+00", "0.00e+00"]
    assert "verdicts identical" in proc.stdout


@pytest.mark.parametrize("extras_b, change", [
    (_probe([6.0], 4e-4), "extras.orbit_probe.return_times length 2 -> 1"),
    (_probe([6.0, 12.0], 4e-4, table="g0: 4"), "extras.table 'g0: 5' -> 'g0: 4'"),
    ({**_probe([6.0, 12.0], 4e-4), "flow": {"kind": "regular"}}, "extras.flow only in B"),
], ids=["list-length", "string", "key"])
def test_extras_structure_change_exits_one(tmp_path, extras_b, change):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "r.json", [_check("killing", 2e-8, 1e-8)], _probe([6.0, 12.0], 4e-4))
    _write(b, "r.json", [_check("killing", 2e-8, 1e-8)], extras_b)
    proc = _run(a, b)
    assert proc.returncode == 1, proc.stdout
    assert f"EXTRAS CHANGED: {change}" in proc.stdout
    assert "VERDICT CHANGED" not in proc.stdout
