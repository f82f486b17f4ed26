"""Acceptance gate: the ten headline properties, one labeled line each.

Each test prints exactly one ``acceptance NN PASS/FAIL`` line (visible with
``pytest -s`` or in failure output) and asserts the same condition, at the
stated desk scale: n <= 3, m <= 1, 200 sample points, fixed seed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from killinglab import (
    LeviCivita,
    RotationProfile,
    build_deformed,
    build_hopf,
    build_quaternionic,
    build_round,
    check_anticommutators,
    check_killing,
    check_kcontact,
    check_nijenhuis,
    check_sasakian,
    check_triple_products,
    check_unit_length,
    classify,
    horizontal_split,
    numeric_orbit_probe,
    parse_rate,
    sample_sphere,
    standard_decomposition,
)
from killinglab.algebra import centralizer_check, eigenfield_residuals
from killinglab.constructions import (
    hopf_sample_filter,
    lift_potential,
    hopf_projection,
    so3_basis,
    solve_lift,
)
from killinglab.metrics import linear_field
from killinglab.verify import (
    check_contact_form_preserved,
    check_flip_quaternionic,
    check_pair_completion,
    check_squares,
    check_transverse_derivative,
    check_triple_brackets,
    check_triple_orthonormality,
    complete_pair,
    measured_cyclic_sign,
)

from oracles import brute_force_decomposition, built

SEED = 42
SAMPLES = 200


def _line(num: int, desc: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"acceptance {num:02d} failed: {desc}"


def _pts(n: int, count: int = SAMPLES):
    return sample_sphere(n, count, seed=SEED).points


# -- 01: round-sphere identity battery ----------------------------------------

def test_01_round_identities():
    ok = True
    for n in (1, 2, 3):
        st = build_round(n)
        lc = LeviCivita(st.metric)
        pts = _pts(n)
        s, T = built(lc, st.field, pts)
        residuals = [
            check_killing(lc, st.field, pts),
            check_unit_length(s),
            check_sasakian(s, T),
            check_kcontact(s),
            check_nijenhuis(s, T),
        ]
        ok = ok and all(r.max() <= 1e-5 for r in residuals)
    _line(1, "round S^3/S^5/S^7: Killing, unit, wedge, contact, torsion < 1e-5", ok)


# -- 02: adjoint-square decomposition vs independent oracle ---------------------

def test_02_standard_decomposition():
    want = {1: [(0.0, 4), (2.0, 2)], 2: [(0.0, 9), (2.0, 6)]}
    ok = True
    for n, expected in want.items():
        st = build_round(n)
        dec = standard_decomposition(st.isometry_algebra(), st.j0)
        got = [(round(r, 9), m) for r, m in dec.summary()]
        oracle = [(round(r, 9), m) for r, m in
                  brute_force_decomposition(st.isometry_algebra().basis, st.j0)]
        ok = ok and got == expected == oracle
    _line(2, "isometry split S^3 (4|2:2), S^5 (9|2:6), matches brute-force oracle", ok)


# -- 03: eigenfield identities on the nonzero block ------------------------------

def test_03_eigenfield_identities():
    ok = True
    for n in (1, 2):
        st = build_round(n)
        lc = LeviCivita(st.metric)
        pts = _pts(n)
        dec = standard_decomposition(st.isometry_algebra(), st.j0)
        rate = dec.rates[-1]
        s = lc.structure_at(st.field, pts)
        for A in dec.blocks[-1]:
            res = eigenfield_residuals(st.field, A, s, rate=rate)
            ok = (ok and res["orthogonality"] < 1e-6
                  and res["bracket_identity"] < 1e-6
                  and res["eigenvalue_identity"] < 1e-6)
    _line(3, "every rate-2 block field: orthogonal, bracket identity, "
             "squared two-form eigenvalue -4, all < 1e-6", ok)


# -- 04: boundary-localized deformation ------------------------------------------

def test_04_deformed_structure():
    ds = build_deformed(n=3, c=0.3)
    lc = LeviCivita(ds.metric)
    rd = build_round(3)
    lc_round = LeviCivita(rd.metric)
    pts = _pts(3)
    on_support = [p for p in pts if ds.f_of(p.coords) > 0.1 * ds.c]

    whole = lc.structure_at(ds.field, pts)
    kc = check_kcontact(whole)
    s, T = built(lc, ds.field, on_support)
    sa = check_sasakian(s, T)
    nj = check_nijenhuis(s, T)
    cf = check_contact_form_preserved(lc, lc_round, ds.field, whole)
    inv_ok = True
    for B in ds.isometry_algebra().basis:
        fld = linear_field(B)
        inv_ok = inv_ok and check_killing(lc, fld, pts[:60]).max() <= 1e-5

    ok = (kc.max() <= 1e-5 and sa.max() >= 1e-2 and nj.max() >= 1e-3 and cf.max() <= 1e-8
          and inv_ok and len(on_support) >= 20)
    _line(4, "deformed metric: contact kept (<1e-5), wedge broken (>1e-2), "
             "torsion broken (>1e-3), invariance algebra Killing, "
             "two-form agreement < 1e-8", ok)


# -- 05: anticommuting triples on S^3 and S^7 -------------------------------------

def test_05_triple_structures():
    ok = True
    for m in (0, 1):
        st = build_quaternionic(m)
        lc = LeviCivita(st.metric)
        pts = _pts((st.dim - 2) // 2)
        gens = complete_pair(st.generators)
        family = lc.structure_at(gens, pts)
        triple = family.fields(slice(3))
        orth = check_triple_orthonormality(triple)
        sq = check_squares(triple)
        ac = check_anticommutators(triple)
        eps = measured_cyclic_sign(st.generators, tol=1e-6)
        al = check_triple_products(triple, eps, variant="aligned")
        br = check_triple_brackets(st.generators, eps)
        unit, products, plus, minus = check_pair_completion(family, gens)
        pc = max(unit.max(), products.max(), min(plus.max(), minus.max()))
        split = horizontal_split(lc.structure_at(st.generators, pts[0]))
        ok = (ok and max(orth.max(), sq.max(), ac.max(), al.max()) <= 1e-10
              and br <= 1e-12 and pc <= 1e-6 and split.dim_plus == 0 and split.ok)
    _line(5, "S^3/S^7 triples: orthonormal, square/anticommutator/cyclic "
             "relations, exact brackets < 1e-12, plus-space trivial, "
             "derivative completes the triple < 1e-6", ok)


# -- 06: sign-flip repair fixture ---------------------------------------------------

def test_06_flip_fixture():
    from killinglab import build_flip_fixture
    fx = build_flip_fixture()
    residuals, extras = check_flip_quaternionic(fx)
    unflipped = residuals.pop("unflipped_uniform_cyclic")
    ok = (unflipped >= 0.5 and max(residuals.values()) <= 1e-5
          and extras["flipped_sign"] in (-1, 1))
    _line(6, "mixed (4,4) triple: flipped endomorphisms satisfy uniform "
             "quaternionic relations on the whole transverse space < 1e-5", ok)


# -- 07: inhomogeneous-rate structure -----------------------------------------------

def test_07_irregular_structure():
    from killinglab import build_irregular
    st = build_irregular()
    lc = LeviCivita(st.metric)
    pts = _pts(st.n)
    s, T = built(lc, st.field, pts)
    sa = check_sasakian(s, T)
    td = check_transverse_derivative(s, st.j0)
    cls = classify(st.profile())
    cen = centralizer_check(st.isometry_algebra(), [st.j0, st.j1])
    inv_ok = True
    for B in st.isometry_algebra().basis:
        fld = linear_field(B)
        inv_ok = inv_ok and check_killing(lc, fld, pts[:60]).max() <= 1e-5
    ok = (sa.max() <= 1e-5 and td.max() <= 1e-5 and cls.kind == "irregular"
          and cls.closure_torus_dim == 2 and cen["ok"] and inv_ok)
    _line(7, "mixed-rate field: wedge identity holds (<1e-5), transverse "
             "derivative is the reference rotation, orbits dense in 2-tori, "
             "central pair confirmed, invariance algebra Killing", ok)


# -- 08: orbit classifier vs numeric probe -------------------------------------------

def test_08_flow_classifier():
    ones = classify(RotationProfile((parse_rate("1"),) * 3))
    two = classify(RotationProfile((parse_rate("1"), parse_rate("2"))))
    periods = {round(two.generic_period, 12)} | {
        round(p, 12) for p in two.exceptional_periods}
    irr = classify(RotationProfile((parse_rate("1"), parse_rate("irr:golden"))))

    J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    gen12 = np.zeros((4, 4))
    gen12[:2, :2], gen12[2:, 2:] = J2, 2.0 * J2
    probe_gen = numeric_orbit_probe(gen12, np.array([0.6, 0.0, 0.8, 0.0]),
                                    t_max=8.0)
    probe_exc = numeric_orbit_probe(gen12, np.array([0.0, 0.0, 1.0, 0.0]),
                                    t_max=8.0)

    ok = (ones.kind == "regular"
          and two.kind == "quasi-regular"
          and periods == {round(2 * math.pi, 12), round(math.pi, 12)}
          and irr.kind == "irregular"
          and probe_gen.return_times[0] == pytest.approx(2 * math.pi, abs=1e-5)
          and probe_exc.return_times[0] == pytest.approx(math.pi, abs=1e-5))
    _line(8, "rates (1,1,1) regular; (1,2) quasi-regular with periods "
             "{2pi, pi}; (1, irrational) irregular; probe agrees", ok)


# -- 09: circle-bundle lift ------------------------------------------------------------

def test_09_circle_bundle_lift():
    bundle = build_hopf()
    lc = LeviCivita(bundle.metric)
    pts = hopf_sample_filter(_pts(1))
    gens = so3_basis()

    fits, defects = zip(*(solve_lift(bundle, g, pts) for g in gens))
    kill_ok = True
    for B in fits:
        fld = linear_field(0.5 * (B - B.T))
        kill_ok = kill_ok and check_killing(lc, fld, pts[:60]).max() <= 1e-5

    # path independence: reroute every potential through a waypoint anchor
    from dataclasses import replace
    waypoint = hopf_projection(pts[1])
    alt = replace(bundle, anchor=waypoint)
    leg0 = lift_potential(bundle, gens[0], waypoint)
    path_worst, tested = 0.0, 0
    for p in pts[2:]:
        y = hopf_projection(p)
        if float(waypoint @ y) / 0.25 < -0.8:
            continue
        path_worst = max(path_worst, abs(
            lift_potential(bundle, gens[0], y)
            - (leg0 + lift_potential(alt, gens[0], y))))
        tested += 1
        if tested >= 8:
            break

    # exact sequence: pushdown of {lifts, fiber} kills exactly the fiber line
    from killinglab.constructions import hopf_differential
    rows = []
    for B in list(fits) + [bundle.j0]:
        rows.append(np.concatenate(
            [hopf_differential(p) @ (B @ p) for p in pts[:10]]))
    u, sv, _ = np.linalg.svd(np.stack(rows))
    kvec = u[:, -1]
    e_fiber = np.array([0.0, 0.0, 0.0, 1.0])
    kernel_ok = (sv[2] > 0.5 and sv[3] < 1e-6
                 and min(np.abs(kvec - e_fiber).max(),
                         np.abs(kvec + e_fiber).max()) < 1e-6)

    ok = (max(defects) < 1e-8 and kill_ok and tested >= 5
          and path_worst < 1e-6 and kernel_ok)
    _line(9, "base rotations lift to Killing fields (<1e-5), potential is "
             "path-independent (<1e-6), pushdown kernel is exactly the "
             "fiber line", ok)


# -- 10: byte-identical reruns -----------------------------------------------------------

def test_10_deterministic_reports():
    cases = [
        ("verify", "--example", "round", "--n", "2"),
        ("verify", "--example", "quaternionic"),
        ("verify", "--example", "hopf-lift"),
        ("verify", "--example", "gF", "--n", "3"),
        ("verify", "--example", "irregular"),
        ("decompose", "--example", "round", "--n", "2"),
    ]
    ok = True
    for case in cases:
        args = [sys.executable, "-m", "killinglab", *case,
                "--samples", "60", "--format", "json", "--no-timestamp"]
        r1 = subprocess.run(args, capture_output=True, text=True, timeout=300)
        r2 = subprocess.run(args, capture_output=True, text=True, timeout=300)
        ok = (ok and r1.returncode == 0 and r2.returncode == 0
              and r1.stdout == r2.stdout and len(r1.stdout) > 0
              and json.loads(r1.stdout)["verdicts"]["all_as_expected"])
    _line(10, "all suites rerun byte-identical with timestamps suppressed", ok)
