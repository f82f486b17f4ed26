"""Self-tests of the benchmark: the oracles reject corrupted reports, the
self-time arithmetic is right on a synthetic span tree, and instrumentation
wraps by-name imports and restores every binding.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

SCHEMA = json.loads((HERE.parent / "src" / "killinglab" / "schema" / "report-v1.json")
                    .read_text(encoding="utf-8"))


def report(extras=None, checks=None) -> dict:
    checks = checks if checks is not None else [
        {"name": "killing", "max_residual": 1e-16, "mean_residual": 1e-17,
         "tolerance": 1e-10, "pass": True, "expected": "pass", "as_expected": True}]
    n_ok = sum(c["as_expected"] for c in checks)
    return {"schema_version": 1, "title": "t", "config": {}, "checks": checks,
            "extras": extras or {},
            "verdicts": {"all_as_expected": n_ok == len(checks),
                         "n_checks": len(checks), "n_as_expected": n_ok}}


def test_report_oracle_rejects_corruption():
    good = report()
    assert oracles.check_report(json.dumps(good), SCHEMA) == []
    failing = copy.deepcopy(good)
    failing["checks"][0].update({"pass": False, "as_expected": False})
    failing["verdicts"].update({"all_as_expected": False, "n_as_expected": 0})
    off_schema = copy.deepcopy(good)
    off_schema["surprise"] = 1
    miscounted = copy.deepcopy(good)
    miscounted["verdicts"]["n_as_expected"] = 0
    for bad in (failing, off_schema, miscounted):
        assert oracles.check_report(json.dumps(bad), SCHEMA)
    assert oracles.check_report("{not json", SCHEMA)


def test_identical_oracle_rejects_changed_bytes():
    assert oracles.check_identical("abc", ["abc", "abc"]) == []
    assert oracles.check_identical("abc", ["abc", "abd"]) == [
        "pass 2 output differs from the first pass"]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_round_oracles_reject_corruption(n):
    blocks = [[0.0, (n + 1) ** 2], [2.0, n * (n + 1)]]
    assert oracles.check_round_verify(report({"decomposition": blocks}), n) == []
    wrong = [[0.0, (n + 1) ** 2 - 1], [2.0, n * (n + 1) + 1]]
    assert oracles.check_round_verify(report({"decomposition": wrong}), n)

    dim = (n + 1) * (2 * n + 1)
    assert sum(d for _, d in blocks) == dim
    good = {"blocks": blocks, "algebra_dim": dim}
    assert oracles.check_round_decompose(report(good), n) == []
    assert oracles.check_round_decompose(report({**good, "blocks": wrong}), n)
    assert oracles.check_round_decompose(report({**good, "algebra_dim": dim + 1}), n)


def test_irregular_oracle_rejects_corruption():
    good = {"flow": {"kind": "irregular", "closure_torus_dim": 2},
            "decomposition": [[0.0, 5]]}
    assert oracles.check_irregular(report(good), 2) == []
    assert oracles.check_irregular(
        report({**good, "flow": {"kind": "regular", "closure_torus_dim": 1}}), 2)
    assert oracles.check_irregular(report({**good, "decomposition": [[0.0, 4]]}), 2)


def test_quaternionic_oracle_rejects_corruption():
    def split(detail):
        return report(checks=[{"name": "horizontal_split_plus_trivial",
                               "max_residual": 0.0, "mean_residual": 0.0,
                               "tolerance": 1e-8, "pass": True, "expected": "pass",
                               "as_expected": True, "detail": detail}])

    assert oracles.check_quaternionic(split("(dim+, dim-) over samples: [(0, 8)]"), 2) == []
    assert oracles.check_quaternionic(split("(dim+, dim-) over samples: [(1, 7)]"), 2)
    assert oracles.check_quaternionic(split("(dim+, dim-) over samples: [(0, 4)]"), 2)
    assert oracles.check_quaternionic(report(), 2)


def test_flow_oracles_reject_corruption():
    periodic = {"classification": {"kind": "quasi-regular", "integer_profile": [1, 2],
                                   "generic_period": 2 * math.pi,
                                   "exceptional_periods": [math.pi]},
                "orbit_probe": {"return_times": [2 * math.pi + 1e-9]}}
    assert oracles.check_flow_periodic_1_2(report(periodic)) == []
    for path, value in ((("classification", "generic_period"), math.pi),
                        (("classification", "exceptional_periods"), []),
                        (("classification", "kind"), "regular"),
                        (("orbit_probe", "return_times"), [])):
        bad = copy.deepcopy(periodic)
        bad[path[0]][path[1]] = value
        assert oracles.check_flow_periodic_1_2(report(bad)), path

    dense = {"classification": {"kind": "irregular", "closure_torus_dim": 2,
                                "generic_period": None},
             "orbit_probe": {"return_times": []}}
    assert oracles.check_flow_irrational(report(dense)) == []
    assert oracles.check_flow_irrational(
        report({**dense, "orbit_probe": {"return_times": [6.0]}}))
    assert oracles.check_flow_irrational(
        report({**dense, "classification": {**dense["classification"],
                                            "closure_torus_dim": 1}}))


def test_hopf_oracle_rejects_wrong_potential():
    anchor = (0.0, 0.0, -0.5)
    ys = [oracles.hopf_projection(x) for x in ((0.5, 0.5, 0.5, 0.5), (0.6, 0.0, 0.8, 0.0))]
    for y in ys:
        assert math.isclose(sum(v * v for v in y), 0.25)  # lands on S^2(1/2)

    def moment(k, y):
        return y[k] - anchor[k]

    assert oracles.check_hopf_moment_map(moment, ys, anchor) == []
    assert oracles.check_hopf_moment_map(lambda k, y: moment(k, y) + 1e-6, ys, anchor)
    assert oracles.check_hopf_moment_map(lambda k, y: float("nan"), ys, anchor)


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_synthetic_tree():
    # root [0, 12] -> a [1, 5] -> c [2, 4]; root -> b [7, 10]
    tr = Tracer(clock=ScriptedClock([0, 1, 2, 4, 5, 7, 10, 12]))

    def root():
        tr.call("a", lambda: tr.call("c", lambda: None))
        tr.call("b", lambda: None)

    tr.call("root", root)
    want = {"root": 5.0, "a": 2.0, "c": 2.0, "b": 3.0}
    assert {n: tr.self_time(n) for n in want} == want
    assert {n: tr.inclusive(n) for n in want} == {"root": 12.0, "a": 4.0, "c": 2.0,
                                                  "b": 3.0}


def test_layer_self_times_sum_to_root():
    # battery [0, 10] -> nabla [1, 5] -> jacobian [2, 4]; battery -> emit [5, 9]
    tr = Tracer(clock=ScriptedClock([0, 1, 2, 4, 5, 5, 9, 10]))
    tr.call("cli.battery.round", lambda: (tr.call("metrics.LeviCivita.nabla",
                                                  lambda: tr.call("sphere.Chart.jacobian",
                                                                  lambda: None)),
                                          tr.call("cli._emit", lambda: None)))
    layers = tr.layer_self()
    assert layers["sphere"] == 2.0 and layers["metrics"] == 2.0
    assert layers["report"] == 4.0 and layers["cli"] == 2.0
    assert sum(layers.values()) == tr.inclusive("cli.battery.round")


def test_instrument_wraps_by_name_imports_and_restores():
    import killinglab.algebra as algebra
    import killinglab.cli as cli
    import killinglab.flows as flows
    import killinglab.sphere as sphere

    originals = (cli.classify, flows.classify, cli.standard_decomposition,
                 sphere.Chart.jacobian)
    tr = Tracer()
    with instrument(tr):
        assert cli.classify is flows.classify is not originals[0]
        assert cli.standard_decomposition is algebra.standard_decomposition
        with redirect_stdout(io.StringIO()):
            assert cli.main(["classify-flow", "1", "2", "--format", "json"]) == 0
    assert tr.calls("flows.classify") == 1 and tr.calls("cli._emit") == 1
    assert (cli.classify, flows.classify, cli.standard_decomposition,
            sphere.Chart.jacobian) == originals
