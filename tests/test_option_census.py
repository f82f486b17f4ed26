"""scripts/option_census.py: every defaulted keyword option has a caller."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "option_census.py"


def _load(monkeypatch):
    spec = importlib.util.spec_from_file_location("option_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_defaulted_option_is_set_by_some_call(monkeypatch):
    unset = [opt.label for opt in _load(monkeypatch).census() if not opt.set_by]
    assert unset == [], f"options no call sets: {unset}"


def test_census_matches_calls_by_name_position_and_class(monkeypatch, capsys):
    module = _load(monkeypatch)
    options = {opt.label: opt.set_by for opt in module.census()}
    assert options["flows.numeric_orbit_probe(chunk)"] == {"tests"}
    # __init__ by its class name; a method binds self, a class call binds the instance
    assert "src" in options["algebra.IsometryAlgebra.__init__(validate)"]
    assert "src" in options["verify.check_killing(frame)"]
    # a protocol hook is left out
    assert not any("__array__" in label for label in options)
    assert module.main(["--unset"]) == 0
    assert capsys.readouterr().out.endswith(" set by no call\n")
