"""scripts/run_all_examples.py: its children run this checkout out of the box."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_examples.py"


def _load():
    spec = importlib.util.spec_from_file_location("run_all_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_battery_runs_with_pythonpath_unset(monkeypatch):
    monkeypatch.delenv("PYTHONPATH", raising=False)
    report = _load().run_battery(["verify", "--example", "round", "--n", "1"], 5, 42)
    assert report["verdicts"]["all_as_expected"] and report["verdicts"]["n_checks"] == 8


def test_a_child_without_a_report_is_refused_with_its_stderr(monkeypatch):
    module = _load()
    failed = subprocess.CompletedProcess([], 1, stdout="", stderr="No module named killinglab")
    monkeypatch.setattr(module.subprocess, "run", lambda *args, **kwargs: failed)
    with pytest.raises(RuntimeError, match="verify exited 1 without a report: No module named"):
        module.run_battery(["verify"], 5, 42)
