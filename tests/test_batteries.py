"""The verify batteries as tables of rows, run and joined by one driver."""

from __future__ import annotations

import ast
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from killinglab import cli, verify
from killinglab.constructions import (J2, block_embed, build_deformed, build_quaternionic,
                                      build_round)
from killinglab.metrics import StructureTensors, linear_field
from killinglab.sphere import sample_sphere

# (name, tolerance, expectation, fail floor, once) of every row, in report order
ROWS = {
    "round": [
        ("tangency", 1e-10, "pass", None, False),
        ("unit_length", 1e-12, "pass", None, False),
        ("killing", 1e-10, "pass", None, False),
        ("wedge_second_derivative", 1e-10, "pass", None, False),
        ("contact_endomorphism", 1e-6, "pass", None, False),
        ("two_form_square_spectrum", 1e-8, "pass", None, False),
        ("cr_torsion", 1e-4, "pass", None, False),
        ("eigenfield_identities", 1e-6, "pass", None, False),
    ],
    "quaternionic": [
        ("triple_orthonormality", 1e-10, "pass", None, False),
        ("triple_brackets", 1e-12, "pass", None, True),
        ("triple_killing", 1e-10, "pass", None, False),
        ("triple_wedge_second_derivative", 1e-10, "pass", None, False),
        ("triple_products_aligned", 1e-10, "pass", None, False),
        ("triple_products_transposed", 1e-10, "fail", 1e-2, False),
        ("triple_anticommutators", 1e-10, "pass", None, False),
        ("structure_squares", 1e-10, "pass", None, False),
        ("pair_completion", 1e-6, "pass", None, False),
        ("horizontal_split_plus_trivial", 1e-8, "pass", None, True),
        ("unflipped_uniform_cyclic", 1e-12, "fail", 0.5, True),
        ("flipped_uniform_cyclic", 1e-12, "pass", None, True),
        ("flipped_squares", 1e-12, "pass", None, True),
        ("flipped_anticommutators", 1e-12, "pass", None, True),
        ("flipped_pairing_symmetric", 1e-12, "pass", None, True),
        ("flipped_pairing_skewness", 1e-12, "pass", None, True),
        ("triple_product_commutes", 1e-12, "pass", None, True),
    ],
    "hopf-lift": [
        ("lift_fit_defect", 1e-8, "pass", None, True),
        ("lift_skewness", 1e-10, "pass", None, True),
        ("lift_killing", 1e-5, "pass", None, False),
        ("potential_path_independence", 1e-6, "pass", None, True),
        ("pushdown_matches_base", 1e-8, "pass", None, True),
        ("pushdown_kernel_is_vertical", 1e-6, "pass", None, True),
        ("brackets_close_mod_vertical", 1e-8, "pass", None, True),
    ],
    "gF": [
        ("tangency", 1e-10, "pass", None, False),
        ("unit_length", 1e-12, "pass", None, False),
        ("killing", 1e-6, "pass", None, False),
        ("contact_endomorphism", 1e-6, "pass", None, False),
        ("contact_form_preserved", 1e-8, "pass", None, False),
        ("two_form_square_spectrum", 1e-5, "pass", None, False),
        ("deformed_transverse_scaling", 1e-6, "pass", None, False),
        ("wedge_second_derivative", 1e-5, "fail", 1e-2, False),
        ("cr_torsion", 1e-4, "fail", 1e-3, False),
        ("invariance_algebra_killing", 1e-5, "pass", None, True),
    ],
    "irregular": [
        ("tangency", 1e-10, "pass", None, False),
        ("unit_length", 1e-12, "pass", None, False),
        ("killing", 1e-6, "pass", None, False),
        ("contact_endomorphism", 1e-6, "pass", None, False),
        ("wedge_second_derivative", 1e-5, "pass", None, False),
        ("cr_torsion", 1e-4, "pass", None, False),
        ("two_form_square_spectrum", 1e-5, "pass", None, False),
        ("transverse_derivative", 1e-5, "pass", None, False),
        ("central_pair", 1e-10, "pass", None, True),
        ("invariance_algebra_killing", 1e-5, "pass", None, True),
    ],
}
PARAMS = {"round": {"n": 2}, "quaternionic": {"m": 1}, "hopf-lift": {}, "gF": {"n": 3},
          "irregular": {"n": 2}}


def test_every_battery_declares_its_rows():
    assert list(cli._BATTERIES) == list(ROWS)
    for example, rows in ROWS.items():
        got = [(r.name, r.tol, "pass" if r.floor is None else "fail", r.floor, r.once)
               for r in cli._BATTERIES[example].rows]
        assert got == rows, example


def test_every_killing_row_flags_a_vanishing_field():
    """A Killing row's residual carries each field's size for its detail:
    every one is built by the one helper that pairs them."""
    killing = [r for b in cli._BATTERIES.values() for r in b.rows if r.name.endswith("killing")]
    assert len(killing) == 7
    assert all(r.detail.__code__ is cli._KILLING.detail.__code__ for r in killing)


@pytest.mark.parametrize("example", list(ROWS))
def test_every_per_sample_row_reads_points_outside_the_sample(example):
    """Through the driver's context builder, each row that runs per chunk
    reads three points the battery never drew: a finite residual per point,
    (3,) or (G, 3)."""
    battery = cli._BATTERIES[example]
    c = battery.context(cli.RunConfig(example=example, samples=20, **PARAMS[example]))
    x = sample_sphere(c.n, 3, seed=1).coords
    assert not (x[:, None] == c.X[None]).all(axis=-1).any()
    got = battery.evaluate(c, x, first=False)
    assert list(got) == [row.name for row in battery.rows if not row.once]
    for row in battery.rows:
        if not row.once:
            res = got[row.name]
            res = np.asarray(row.detail(res, c)[0] if callable(row.detail) else res)
            assert res.shape[-1:] == (3,) and res.ndim in (1, 2), (row.name, res.shape)
            assert np.isfinite(res).all(), row.name


# what each battery builds once, when it opens, in order
FIXED = {"round": ["decomposition"],
         "quaternionic": ["bracket_sign", "complete_pair", "check_flip_quaternionic"],
         "hopf-lift": ["sample_filter", "path_targets", "lift", "pushdown"],
         "gF": ["support", "isometry_algebra", "round_connection"],
         "irregular": ["isometry_algebra"]}


@pytest.mark.parametrize("example", list(ROWS))
def test_every_build_and_check_is_a_clock_row_of_its_own(example):
    """The clock holds a row for each fixed stage, each per-chunk stage and
    each check, and nothing else: nothing a row reads is built in the time of
    another."""
    battery = cli._BATTERIES[example]
    assert [stage.name for stage in battery.fixed] == FIXED[example]
    rep = battery(cli.RunConfig(example=example, samples=cli.GF_MIN_SAMPLES, **PARAMS[example]))
    chunked = {step.name for step in battery.steps if isinstance(step, cli.Stage)}
    assert set(rep.clock) == set(FIXED[example]) | chunked | {row.name for row in battery.rows}


def test_only_the_driver_times_a_stage():
    """Every ``rep.stage`` call in cli is a Stage's own."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))

    def stage_calls(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute) and call.func.attr == "stage"]

    stage_class = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "Stage")
    driver = [fn for fn in stage_class.body if isinstance(fn, ast.FunctionDef)
              and fn.name == "__call__"]
    assert len(driver) == 1
    assert len(stage_calls(tree)) == len(stage_calls(driver[0])) == 1


# -- a verdict does not depend on where the chunks split ------------------------------

def _split_at_one(monkeypatch):
    """Stream every sample as one chunk of its first point and one of the rest."""
    monkeypatch.setattr(cli, "sample_chunks", lambda n, point_bytes: [slice(0, 1), slice(1, n)])


def _one_and_split(battery, cfg, monkeypatch) -> tuple[dict, dict]:
    one = json.loads(battery(cfg).to_json(include_timestamp=False))
    _split_at_one(monkeypatch)
    split = json.loads(battery(cfg).to_json(include_timestamp=False))
    return one, split


def _check(doc: dict, name: str) -> dict:
    return next(c for c in doc["checks"] if c["name"] == name)


def test_gf_transverse_scaling_counts_the_whole_sample(monkeypatch):
    """A first chunk of one point off the transverse plane (its last four
    coordinates 0) read inf, which the join kept."""
    head = np.zeros(8)
    head[:4] = [0.5, -0.5, 0.5, 0.5]
    X = np.vstack([head, sample_sphere(3, 5, seed=42).coords])
    monkeypatch.setattr(cli, "sample_sphere", lambda n, count, seed: SimpleNamespace(coords=X))
    one, split = _one_and_split(cli._GF, cli.RunConfig(example="gF", n=3, samples=6), monkeypatch)
    assert split == one
    scaling = _check(split, "deformed_transverse_scaling")
    assert scaling["max_residual"] <= 1e-6
    assert scaling["detail"] == "5 samples carry the transverse plane"


def test_killing_flags_a_field_that_vanishes_on_the_whole_sample_only(monkeypatch):
    """A rotation of the first plane of R^6 vanishes at a first point in its
    orthocomplement, but not on the whole sample: the check of one chunk
    of it alone flagged the joined check degenerate."""
    rs = build_round(2)
    field = linear_field(block_embed(J2, 6, 0))
    X = np.vstack([np.eye(6)[2], sample_sphere(2, 5, seed=42).coords])
    battery = cli.Battery(
        lambda cfg: {"title": "a plane rotation", "metric": rs.metric, "field": field, "n": 2},
        (cli._killing_row("killing", 1e-10,
                          lambda c: (c.field, c.x, None, c.field.value(c.x)), False),))
    monkeypatch.setattr(cli, "sample_sphere", lambda n, count, seed: SimpleNamespace(coords=X))
    one, split = _one_and_split(battery, cli.RunConfig(n=2, samples=6), monkeypatch)
    assert split == one
    assert "detail" not in _check(split, "killing")


def test_hopf_lift_projects_its_path_targets_once(monkeypatch):
    """The sample refusal and the path check read one build of the targets:
    the waypoint, the second kept point, is projected once a run."""
    waypoints = []
    projection = cli.hopf_projection

    def recorded(x):
        waypoints.append(np.ndim(x) == 1)
        return projection(x)

    monkeypatch.setattr(cli, "hopf_projection", recorded)
    assert cli._HOPF(cli.RunConfig(example="hopf-lift", samples=20)).all_as_expected
    assert sum(waypoints) == 1


def _family_field_by_field(lc, gens, x):
    """The structure of a generator stack on a metric that takes one field at
    a time, which refuses a stack: each field's own, stacked, without the jets."""
    sts = [lc.structure_at(linear_field(A), x) for A in gens]
    return StructureTensors(**{k: v if k in ("x", "metric_matrix", "frame") else
                               np.stack([vars(st)[k] for st in sts])
                               for k, v in vars(sts[0]).items() if k != "jet"})


def test_pair_completion_takes_its_sign_from_the_whole_sample(monkeypatch):
    """The quaternionic triple on gF's metric at c = 1: at 60 samples (seed
    3) the reconstruction fits - over the sample, + at its first point,
    whose chunk picked + for itself and named it."""
    qs, ds = build_quaternionic(1), build_deformed(n=3, c=1.0)
    quaternionic = cli._QUATERNIONIC
    battery = quaternionic._replace(
        open=lambda cfg: {"title": "a deformed triple", "qs": qs, "metric": ds.metric,
                          "field": qs.generators[0], "n": 3},
        steps=(cli.Stage("triple_psi", "family",
                         lambda c: _family_field_by_field(c.lc, c.gens, c.x)),
               next(r for r in quaternionic.rows if r.name == "pair_completion")),
        extras=lambda c: {})
    one, split = _one_and_split(battery, cli.RunConfig(samples=60, seed=3), monkeypatch)
    assert split == one
    assert "(sign -)" in _check(split, "pair_completion")["detail"]
    c = battery.context(cli.RunConfig(samples=60, seed=3))
    _, _, plus, minus = battery.evaluate(c, c.X[:1], first=True)["pair_completion"]
    assert plus[0] <= minus[0]  # the first point alone fits +


def test_triple_rows_name_the_sign_their_residuals_read():
    """triple_brackets and both product rows name one bracket sign, the one
    their residuals are measured at."""
    doc = json.loads(cli._QUATERNIONIC(cli.RunConfig(m=1, samples=20)).to_json(
        include_timestamp=False))
    gens = build_quaternionic(1).generators
    eps = verify.measured_cyclic_sign(gens, tol=1e-6)
    brackets = _check(doc, "triple_brackets")
    assert brackets["detail"] == f"uniform bracket sign eps={eps:+d}"
    assert brackets["max_residual"] == verify.check_triple_brackets(gens, eps) <= 1e-12
    assert verify.check_triple_brackets(gens, -eps) >= 1.0
    for variant in ("aligned", "transposed"):
        assert _check(doc, f"triple_products_{variant}")["detail"] == f"bracket sign eps={eps:+d}"


def test_triple_sign_is_measured_once_at_the_bracket_closure():
    """A triple whose brackets close to 1e-8, within the bracket residual's
    1e-6 closure but not the default 1e-10: its rows are judged and named at
    that one sign, where the product rows measured their own sign and
    refused the triple."""
    qs = build_quaternionic(1)
    skew = np.random.default_rng(0).standard_normal((8, 8))
    perturbed = qs.generators.copy()
    perturbed[0] += 1e-8 * (skew - skew.T)
    fields = [linear_field(g) for g in perturbed]
    gens = np.array([f.matrix for f in fields])
    eps = verify.measured_cyclic_sign(gens, tol=1e-6)
    with pytest.raises(ValueError, match="do not close"):
        verify.measured_cyclic_sign(gens)
    quaternionic, names = cli._QUATERNIONIC, ("triple_brackets", "triple_products_aligned",
                                              "triple_products_transposed")
    battery = quaternionic._replace(
        open=lambda cfg: {"title": "a perturbed triple",
                          "qs": SimpleNamespace(generators=gens),
                          "metric": qs.metric, "field": fields[0], "n": 3},
        steps=(*quaternionic.steps[:2], *(r for r in quaternionic.rows if r.name in names)),
        extras=lambda c: {})
    doc = json.loads(battery(cli.RunConfig(samples=10)).to_json(include_timestamp=False))
    assert [c["name"] for c in doc["checks"]] == list(names)
    assert all(c["detail"].endswith(f"eps={eps:+d}") for c in doc["checks"])
    assert 1e-10 < _check(doc, "triple_brackets")["max_residual"] < 1e-6
