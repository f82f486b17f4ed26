"""scripts/orbit_probe_demo.py runs and its probe columns match the classifier."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from killinglab import RotationProfile, classify, parse_rate

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "orbit_probe_demo.py"


def test_demo_returns_match_the_classifier_periods(capsys):
    spec = importlib.util.spec_from_file_location("orbit_probe_demo", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("(1, ")]
    assert [row[1].rstrip(")") for row in rows] == module.CASES
    for row in rows:
        generic, plane, min_dist = row[-3:]
        flow = classify(RotationProfile((parse_rate("1"), parse_rate(row[1].rstrip(")")))))
        assert row[2] == flow.kind
        if flow.generic_period is None:
            assert generic == "none" and float(min_dist) > 0.0
            continue
        # x0 generic closes at the generic period; x0 in the rate-a plane at
        # the period of that plane alone
        plane_period = flow.generic_period / abs(flow.integer_profile[1])
        assert (generic, plane) == (f"{flow.generic_period:.6f}", f"{plane_period:.6f}")
