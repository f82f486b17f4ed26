"""Check-result semantics, report serialization, and the JSON schema."""

from __future__ import annotations

import json
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killinglab import CheckResult, VerificationReport, report

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "killinglab" / "schema"
     / "report-v1.json").read_text())


def make(name="c", mx=1e-9, mean=1e-10, tol=1e-8, expected="pass", floor=None,
         detail=""):
    return CheckResult(name=name, max_residual=mx, mean_residual=mean,
                       tolerance=tol, expected=expected, fail_floor=floor,
                       detail=detail)


def _residuals(rng, shape):
    """Nonnegative residuals spread over many decades, as real checks give."""
    return np.exp(rng.uniform(-40.0, 2.0, size=shape))


def test_from_residuals_reproduces_the_four_old_aggregations():
    """One constructor, bit for bit the max and mean that four helpers took
    each their own way; the old formulas are written out as oracles."""
    for seed in range(200):
        _old_aggregations_agree(np.random.default_rng(seed))


def _old_aggregations_agree(rng):
    n, g = int(rng.integers(1, 300)), int(rng.integers(2, 6))

    def same(chk, mx, mean):
        assert (chk.max_residual, chk.mean_residual) == (mx, mean)

    # per-point residuals (N,) and (G, N): max of all, mean of the field means
    for arr in (_residuals(rng, n), _residuals(rng, (g, n))):
        same(CheckResult.from_residuals("c", arr, 1e-8),
             float(arr.max()), float(arr.mean(axis=-1).mean()))
    # same-shaped parts merged: max of maxes, mean of means
    parts = [_residuals(rng, n) for _ in range(g)]
    same(CheckResult.from_residuals("c", np.stack(parts), 1e-8),
         max(float(p.max()) for p in parts), float(np.mean([float(p.mean()) for p in parts])))
    # residuals by name: max and mean of the values
    named = {"orthogonality": float(_residuals(rng, ())),
             "bracket_identity": float(_residuals(rng, ())),
             "eigenvalue_identity": float(_residuals(rng, ()))}
    same(CheckResult.from_residuals("c", list(named.values()), 1e-6),
         max(named.values()), float(np.mean(list(named.values()))))
    # one residual: its own max and mean
    one = float(_residuals(rng, ()))
    same(CheckResult.from_residuals("c", one, 1e-8), one, one)


def test_from_residuals_carries_expectation_and_refuses_no_samples():
    chk = CheckResult.from_residuals("torsion", [0.5, 2.0], 1e-4, expected="fail",
                                     fail_floor=1e-3, detail="d")
    assert (chk.name, chk.tolerance, chk.expected, chk.fail_floor, chk.detail) \
        == ("torsion", 1e-4, "fail", 1e-3, "d")
    assert chk.as_expected and (chk.max_residual, chk.mean_residual) == (2.0, 1.25)
    for empty in ([], np.zeros((3, 0))):
        with pytest.raises(ValueError, match="check 'torsion' got no samples to evaluate"):
            CheckResult.from_residuals("torsion", empty, 1e-4)


def test_pass_semantics():
    assert make(mx=1e-9, tol=1e-8).passed
    assert not make(mx=1e-7, tol=1e-8).passed
    assert make(mx=1e-8, tol=1e-8).passed  # boundary counts as pass


def test_expected_fail_needs_floor():
    with pytest.raises(ValueError):
        make(expected="fail")


def test_expected_fail_semantics():
    # residual above floor and above tol: the anticipated breakage
    assert make(mx=0.5, tol=1e-5, expected="fail", floor=1e-2).as_expected
    # residual in the dead zone between tol and floor: NOT as expected
    assert not make(mx=1e-3, tol=1e-5, expected="fail", floor=1e-2).as_expected
    # residual below tol: the identity unexpectedly held
    assert not make(mx=1e-9, tol=1e-5, expected="fail", floor=1e-2).as_expected


def test_expected_validation():
    with pytest.raises(ValueError):
        make(expected="maybe")


def test_to_dict_optional_fields():
    d = make().to_dict()
    assert "fail_floor" not in d and "detail" not in d
    d2 = make(expected="fail", floor=0.1, detail="why").to_dict()
    assert d2["fail_floor"] == 0.1 and d2["detail"] == "why"


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-16, 1e3), st.floats(1e-16, 1e3))
def test_pass_iff_within_tolerance(mx, tol):
    c = make(mx=mx, mean=mx / 2, tol=tol)
    assert c.passed == (mx <= tol)


def test_report_round_trip_and_schema():
    rep = VerificationReport(title="demo", config={"samples": 3, "seed": 42})
    rep.add(make(name="a"))
    rep.add(make(name="b", mx=0.5, tol=1e-6, expected="fail", floor=1e-2,
                 detail="known breakage"))
    doc = json.loads(rep.to_json(include_timestamp=False))
    jsonschema.validate(doc, SCHEMA)
    assert doc["verdicts"] == {"all_as_expected": True, "n_checks": 2,
                               "n_as_expected": 2}
    assert "generated_at" not in doc

    doc_t = json.loads(rep.to_json(include_timestamp=True))
    jsonschema.validate(doc_t, SCHEMA)
    assert "generated_at" in doc_t


def test_schema_rejects_malformed():
    rep = VerificationReport(title="demo")
    rep.add(make(name="a"))
    doc = json.loads(rep.to_json(include_timestamp=False))
    doc["checks"][0].pop("tolerance")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)
    doc2 = json.loads(rep.to_json(include_timestamp=False))
    doc2["unknown_top_level"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc2, SCHEMA)


def test_render_text_markers():
    rep = VerificationReport(title="demo")
    rep.add(make(name="good"))
    rep.add(make(name="known_bad", mx=0.5, tol=1e-6, expected="fail", floor=1e-2))
    rep.add(make(name="surprise", mx=0.5, tol=1e-6))
    text = rep.render_text()
    assert "[        ok]" in text
    assert "[        xf]" in text
    assert "UNEXPECTED" in text
    assert "verdict: 2/3 checks as expected" in text
    assert not rep.all_as_expected


def _clocked_report(ticks: list[float], monkeypatch) -> VerificationReport:
    """A report whose clock reads the given perf_counter values in turn."""
    readings = iter(ticks)
    monkeypatch.setattr(report, "perf_counter", lambda: next(readings))
    return VerificationReport(title="demo")


def test_clock_charges_each_stage_its_own_row_and_each_check_the_rest(monkeypatch):
    # opened 0; outer stage 1..9 holding inner stage 2..5; check a at 10;
    # stage 12..15; check b at 16; lap at 20
    rep = _clocked_report([0.0, 1.0, 2.0, 5.0, 9.0, 10.0, 12.0, 15.0, 16.0, 20.0],
                          monkeypatch)
    with rep.stage("outer"):
        with rep.stage("inner"):
            pass
    rep.add(make(name="a"))
    with rep.stage("build"):
        pass
    rep.add(make(name="b"))
    rep.lap("extras")
    assert rep.opened == 0.0
    assert rep.clock == {"inner": 3.0, "outer": 5.0, "a": 2.0, "build": 3.0, "b": 3.0,
                         "extras": 4.0}
    assert sum(rep.clock.values()) == 20.0


def test_clock_stays_out_of_payload_and_equality():
    reps = []
    for pause in (0.0, 2e-3):
        rep = VerificationReport(title="demo", config={"samples": 3})
        with rep.stage("build"):
            time.sleep(pause)
        rep.add(make(name="a"))
        reps.append(rep)
    one, two = reps
    assert one.clock != two.clock and one.opened != two.opened
    assert one == two
    assert one.to_json(include_timestamp=False) == two.to_json(include_timestamp=False)
    assert one.render_text() == two.render_text()
    assert not {"clock", "opened"} & set(one.to_dict())
