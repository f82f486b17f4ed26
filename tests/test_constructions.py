"""Builders: round, quaternionic triple, flip fixture, circle-bundle lift,
boundary-localized deformation, and the inhomogeneous-rate structure."""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from killinglab import (
    LeviCivita,
    MetricDegeneracyError,
    build_deformed,
    build_flip_fixture,
    build_hopf,
    build_irregular,
    build_quaternionic,
    build_round,
    check_killing,
    check_kcontact,
    check_nijenhuis,
    check_sasakian,
    check_unit_length,
    classify,
    sample_sphere,
    standard_decomposition,
)
from killinglab.algebra import centralizer_check, field_bracket, so_basis
from killinglab import cli, constructions
from killinglab.constructions import (
    J2,
    RIGHT_J,
    fit_linear_generator,
    gauss_legendre_rule,
    hopf_differential,
    hopf_projection,
    hopf_sample_filter,
    horizontal_lift_batch,
    lift_potential,
    lifted_field_value,
    so3_basis,
    solve_lift,
    unitary_block_basis,
)
from killinglab.flows import parse_rate
from killinglab.metrics import MetricField, linear_field
from killinglab.verify import (
    check_contact_form_preserved,
    check_flip_quaternionic,
    check_transverse_derivative,
    involution_split,
)

from oracles import built, curvature_form


# -- round ---------------------------------------------------------------------

def test_build_round_shapes():
    st = build_round(2)
    assert st.dim == 6
    assert np.abs(st.j0 @ st.j0 + np.eye(6)).max() == 0.0
    with pytest.raises(ValueError):
        build_round(0)


def test_round_profile_is_all_ones():
    st = build_round(3)
    assert st.profile().values() == (1.0,) * 4
    assert classify(st.profile()).kind == "regular"


def test_declared_rates_are_checked_against_the_fields_generator():
    """Rates (4/3, 1, 1) declared for a field whose first rate is sqrt 2, or
    rates 1 for a field turning at 2, are refused, not classified."""
    with pytest.raises(ValueError, match="disagree with generator spectrum"):
        replace(build_irregular(2), a=parse_rate("1/3")).profile()
    rs = build_round(2)
    with pytest.raises(ValueError, match="disagree with generator spectrum"):
        replace(rs, field=linear_field(2.0 * rs.j0)).profile()


# -- quaternionic triple ---------------------------------------------------------

def test_quaternionic_generator_relations():
    st = build_quaternionic(1)
    g = st.generators
    eye = np.eye(8)
    for a in range(3):
        assert np.abs(g[a] @ g[a] + eye).max() == 0.0
        for b in range(a + 1, 3):
            assert np.abs(g[a] @ g[b] + g[b] @ g[a]).max() == 0.0
    # brackets close onto the third generator with one uniform sign
    br01 = field_bracket(g[0], g[1])
    assert min(np.abs(br01 - 2.0 * g[2]).max(),
               np.abs(br01 + 2.0 * g[2]).max()) == 0.0


def test_quaternionic_rejects_negative_m():
    with pytest.raises(ValueError):
        build_quaternionic(-1)


def test_quaternionic_triple_is_killing_s3_s7():
    for m in (0, 1):
        st = build_quaternionic(m)
        lc = LeviCivita(st.metric)
        pts = sample_sphere((st.dim - 2) // 2, 15, seed=42).points
        for f in st.generators:
            assert check_killing(lc, f, pts).max() <= 1e-12
            assert check_unit_length(lc.structure_at(f, pts)).max() <= 1e-12


# -- flip fixture ----------------------------------------------------------------

def test_flip_fixture_repair():
    fx = build_flip_fixture()
    residuals, extras = check_flip_quaternionic(fx)
    assert list(residuals) == ["unflipped_uniform_cyclic", "flipped_uniform_cyclic",
                               "flipped_squares", "flipped_anticommutators",
                               "flipped_pairing_symmetric", "flipped_pairing_skewness",
                               "triple_product_commutes"]
    assert residuals.pop("unflipped_uniform_cyclic") >= 0.5
    assert max(residuals.values()) <= 1e-12
    assert residuals["flipped_uniform_cyclic"] < 1e-12
    assert extras["flipped_sign"] in (-1, +1)
    assert extras["unflipped_best_sign"] is None


def test_flip_fixture_plus_space_dimension():
    fx = build_flip_fixture()
    P = fx.J[0] @ fx.J[1] @ fx.J[2]
    split = involution_split(P)
    assert (split.dim_plus, split.dim_minus) == (4, 4)
    assert np.abs(fx.projector_plus @ P - fx.projector_plus).max() < 1e-12


def test_split_fixture_operator_two_by_two():
    """A direct (2, 2) self-adjoint involution, which no anticommuting triple
    gives (see FlipFixture), fed to the eigensplit."""
    split = involution_split(np.diag([1.0, 1.0, -1.0, -1.0]))
    assert (split.dim_plus, split.dim_minus) == (2, 2)
    assert split.ok


# -- circle bundle ----------------------------------------------------------------

def test_hopf_projection_lands_on_half_sphere():
    xs = sample_sphere(1, 30, seed=42).arrays()
    for x in xs:
        y = hopf_projection(x)
        assert abs(np.linalg.norm(y) - 0.5) < 1e-12


def test_hopf_projection_constant_on_fibers(hopf):
    x = sample_sphere(1, 1, seed=3).arrays()[0]
    from scipy.linalg import expm
    for t in (0.4, 1.1, 2.9):
        moved = expm(t * hopf.j0) @ x
        assert np.abs(hopf_projection(moved) - hopf_projection(x)).max() < 1e-12


def test_hopf_differential_kills_fiber(hopf):
    x = sample_sphere(1, 1, seed=8).arrays()[0]
    assert np.abs(hopf_differential(x) @ (hopf.j0 @ x)).max() < 1e-12


def test_curvature_is_minus_two_times_area(hopf):
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.standard_normal(4)
        y = hopf_projection(x / np.linalg.norm(x))
        u = rng.standard_normal(3)
        u -= (u @ y) * y / (y @ y)
        v = rng.standard_normal(3)
        v -= (v @ y) * y / (y @ y)
        F = curvature_form(hopf, y, u, v)
        area = float((y / np.linalg.norm(y)) @ np.cross(u, v))
        assert F == pytest.approx(-2.0 * area, abs=1e-12)


def test_solve_lift_fits_linear_killing(hopf):
    pts = hopf_sample_filter(sample_sphere(1, 60, seed=42).points)
    assert len(pts) >= 30
    lc = LeviCivita(hopf.metric)
    for gen in so3_basis():
        B, defect = solve_lift(hopf, gen, pts[:30])
        assert defect < 1e-8
        assert np.abs(B + B.T).max() < 1e-10  # skew: a genuine isometry generator
        lifted = linear_field(0.5 * (B - B.T))
        probe = sample_sphere(1, 10, seed=7).points
        assert check_killing(lc, lifted, probe).max() <= 1e-12


def test_lift_potential_path_independence(hopf):
    """Recompute the potential through a displaced anchor: values must agree
    up to one global constant (fixed by evaluating at the new anchor)."""
    pts = hopf_sample_filter(sample_sphere(1, 40, seed=42).points)
    gen = so3_basis()[0]
    waypoint = hopf_projection(pts[1])
    alt = replace(hopf, anchor=waypoint)
    leg0 = lift_potential(hopf, gen, waypoint)
    worst = 0.0
    tested = 0
    for p in pts[2:]:
        y = hopf_projection(p)
        cos_w = float(waypoint @ y) / (0.5 * 0.5)
        if cos_w < -0.8:
            continue  # near the alternate anchor's antipode: quadrature refuses
        direct = lift_potential(hopf, gen, y)
        two_leg = leg0 + lift_potential(alt, gen, y)
        worst = max(worst, abs(direct - two_leg))
        tested += 1
        if tested >= 6:
            break
    assert tested >= 4
    assert worst < 1e-6


def test_lift_refuses_antipode(hopf):
    """The antipode and, since the test is written so that NaN fails it, a
    NaN base point."""
    gen = so3_basis()[0]
    antipode = -hopf.anchor
    with pytest.raises(ValueError, match="antipode"):
        lift_potential(hopf, gen, antipode)
    with pytest.raises(ValueError, match="anchor antipode, or not finite"):
        lift_potential(hopf, gen, np.array([[0.0, 0.3, 0.4], [np.nan, 0.0, 0.5]]))


def test_lift_potential_is_moment_map(hopf):
    """Closed form: the potential of the k-th rotation generator is the moment
    map y[k] - anchor[k].  Seeded base points, the anchor itself, and a ring
    of arcs just inside the pi - 0.2 cutoff; the batched (N, 3) call and the
    per-point calls must both match it."""
    rng = np.random.default_rng(20)
    v = rng.standard_normal((600, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v = v[np.arccos(-v[:, 2]) <= math.pi - 0.2]      # anchor direction is -e3
    cut = math.pi - 0.2 - 1e-7
    phi = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    ring = np.stack([math.sin(cut) * np.cos(phi), math.sin(cut) * np.sin(phi),
                     np.full_like(phi, -math.cos(cut))], axis=1)
    ys = np.concatenate([hopf.anchor[None, :], 0.5 * v, 0.5 * ring])
    assert len(ys) >= 500
    for k, gen in enumerate(so3_basis()):
        want = ys[:, k] - hopf.anchor[k]
        batched = lift_potential(hopf, gen, ys)
        assert batched.shape == (len(ys),)
        assert np.abs(batched - want).max() < 1e-12
        single = [lift_potential(hopf, gen, y) for y in ys]
        assert all(isinstance(f, float) for f in single)
        assert np.abs(np.array(single) - want).max() < 1e-12
    with pytest.raises(ValueError, match="antipode"):
        lift_potential(hopf, so3_basis()[0], np.stack([ys[1], -hopf.anchor]))


def test_stacked_lifts_equal_per_generator_calls(hopf):
    """A (3, 3, 3) stack of generators lifts in one quadrature to what three
    per-generator calls give, at one point and on a stack that holds the
    anchor itself (potential 0 there) and a fiber point over it."""
    gens = so3_basis()
    stack = np.stack(gens)
    pts = np.concatenate([[[0.0, 0.0, 0.0, 1.0]],       # projects onto the anchor
                          hopf_sample_filter(sample_sphere(1, 40, seed=3).points)[:20]])
    ys = hopf_projection(pts)
    assert np.abs(ys[0] - hopf.anchor).max() < 1e-15
    for y in (ys, ys[5], hopf.anchor):
        got = lift_potential(hopf, stack, y)
        want = np.stack([np.asarray(lift_potential(hopf, g, y)) for g in gens])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15
    assert np.all(lift_potential(hopf, stack, ys)[:, 0] == 0.0)
    for x in (pts, pts[5], pts[0]):
        got = lifted_field_value(hopf, stack, x)
        want = np.stack([lifted_field_value(hopf, g, x) for g in gens])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15
    mats, defects = solve_lift(hopf, stack, pts)
    assert mats.shape == (3, 4, 4) and defects.shape == (3,)
    for g, B, d in zip(gens, mats, defects):
        B1, d1 = solve_lift(hopf, g, pts)
        assert isinstance(d1, float)
        assert np.abs(B - B1).max() <= 1e-15
        assert abs(d - d1) <= 1e-15


@pytest.mark.parametrize("steps", [4, 16, 33])
def test_quadrature_rule_is_gauss_legendre_on_the_unit_interval(hopf, steps):
    ts, ws = gauss_legendre_rule(steps)
    nodes, weights = np.polynomial.legendre.leggauss(steps)
    assert np.array_equal(ts, 0.5 * (nodes + 1.0))
    assert np.array_equal(ws, 0.5 * weights)
    assert not ts.flags.writeable and not ws.flags.writeable
    bundle = replace(hopf, quadrature_steps=steps)
    assert bundle.rule is gauss_legendre_rule(steps)
    assert replace(bundle, anchor=np.array([0.5, 0.0, 0.0])).rule is bundle.rule


def test_hopf_battery_makes_three_quadratures_and_one_rule(monkeypatch, capsys):
    """One quadrature lifts the three generators, and the path-independence
    check takes two; the rule comes from one leggauss call per process."""
    calls = []
    real_potential = constructions.lift_potential

    def counting_potential(*args):
        calls.append(args)
        return real_potential(*args)

    real_leggauss = np.polynomial.legendre.leggauss
    rules = []

    def counting_leggauss(k):
        rules.append(k)
        return real_leggauss(k)

    monkeypatch.setattr(constructions, "lift_potential", counting_potential)
    monkeypatch.setattr(cli, "lift_potential", counting_potential)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    gauss_legendre_rule.cache_clear()
    argv = ["verify", "--example", "hopf-lift", "--samples", "20", "--no-timestamp"]
    assert cli.main(argv) == 0
    assert len(calls) == 3
    assert cli.main(argv) == 0
    assert len(calls) == 6
    assert rules == [16]
    capsys.readouterr()


def test_pushdown_matches_base(hopf):
    """d(projection) maps each fitted lift back onto its base generator."""
    pts = hopf_sample_filter(sample_sphere(1, 50, seed=42).points)[:25]
    for gen in so3_basis():
        B, _ = solve_lift(hopf, gen, pts)
        for x in pts[:8]:
            got = hopf_differential(x) @ (B @ x)
            want = gen @ hopf_projection(x)
            assert np.abs(got - want).max() < 1e-8


def test_pushdown_kernel_is_fiber_direction(hopf):
    """Among {lift_1, lift_2, lift_3, fiber field}, the pushdown annihilates
    exactly the fiber coordinate: the lift splits the projection."""
    pts = hopf_sample_filter(sample_sphere(1, 50, seed=42).points)[:25]
    fits = [solve_lift(hopf, gen, pts)[0] for gen in so3_basis()]
    rows = []
    for B in fits + [hopf.j0]:
        coef = []
        for x in pts[:10]:
            coef.append(hopf_differential(x) @ (B @ x))
        rows.append(np.concatenate(coef))
    A = np.stack(rows)  # (4, 30): pushdown action of the four generators
    u, sv, _ = np.linalg.svd(A)
    assert sv[2] > 0.5          # the three lifts push down onto independent rotations
    assert sv[3] < 1e-10        # exactly one combination dies...
    kvec = u[:, -1]
    e_fiber = np.array([0.0, 0.0, 0.0, 1.0])
    assert min(np.abs(kvec - e_fiber).max(),
               np.abs(kvec + e_fiber).max()) < 1e-8  # ...and it is the fiber field


def test_lift_brackets_close_mod_vertical(hopf):
    pts = hopf_sample_filter(sample_sphere(1, 50, seed=42).points)[:25]
    fits = [solve_lift(hopf, gen, pts)[0] for gen in so3_basis()]
    span = np.stack([M.ravel() for M in fits + [hopf.j0]], axis=1)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        br = field_bracket(fits[a], fits[b])
        _, res, *_ = np.linalg.lstsq(span, br.ravel(), rcond=None)
        resid = float(np.sqrt(res[0])) if res.size else 0.0
        assert resid < 1e-8


# -- boundary-localized deformation -----------------------------------------------

def test_build_deformed_validation():
    with pytest.raises(ValueError):
        build_deformed(n=2)
    with pytest.raises(MetricDegeneracyError):
        build_deformed(n=3, c=25.0)


def test_deformed_metric_is_round_off_support(deformed):
    xs = sample_sphere(deformed.n, 200, seed=42).arrays()
    off = [x for x in xs if deformed.f_of(x) == 0.0]
    assert off, "no off-support samples at this scale"
    for x in off[:10]:
        assert np.array_equal(deformed.metric.matrix_at(x), np.eye(deformed.dim))


def test_deformed_field_still_unit_killing(deformed):
    lc = LeviCivita(deformed.metric)
    pts = sample_sphere(deformed.n, 25, seed=42).points
    st = lc.structure_at(deformed.field, pts)
    assert check_unit_length(st).max() <= 1e-10
    assert check_killing(lc, deformed.field, pts).max() <= 1e-6
    assert check_kcontact(st).max() <= 1e-6


def test_deformed_contact_form_preserved(deformed, round3, lc_round3):
    lc = LeviCivita(deformed.metric)
    pts = sample_sphere(deformed.n, 20, seed=42).points
    r = check_contact_form_preserved(lc, lc_round3, deformed.field,
                                     lc.structure_at(deformed.field, pts))
    assert r.max() <= 1e-8


def test_deformed_transverse_scaling(deformed):
    from killinglab import cli
    lc = LeviCivita(deformed.metric)
    pts = sample_sphere(deformed.n, 25, seed=42).points
    c = SimpleNamespace(s=deformed, st=lc.structure_at(deformed.field, pts))
    res, detail = cli._transverse_count(cli._deformed_scaling(c), c)
    assert res.max() <= 1e-6
    assert detail == f"{len(res)} samples carry the transverse plane" and len(res) > 20


def test_deformed_breaks_wedge_identity_on_support(deformed):
    lc = LeviCivita(deformed.metric)
    xs = sample_sphere(deformed.n, 120, seed=42)
    on = [p for p in xs.points if deformed.f_of(p.coords) > 0.1 * deformed.c]
    assert len(on) >= 5
    r = check_sasakian(*built(lc, deformed.field, on[:12]))
    assert r.max() > 1e-2


def test_deformed_breaks_cr_integrability(deformed):
    lc = LeviCivita(deformed.metric)
    xs = sample_sphere(deformed.n, 120, seed=42)
    on = [p for p in xs.points if deformed.f_of(p.coords) > 0.1 * deformed.c]
    r = check_nijenhuis(*built(lc, deformed.field, on[:12]))
    assert r.max() >= 1e-3


def test_deformed_invariance_algebra(deformed):
    alg = deformed.isometry_algebra()
    assert alg.dim == (deformed.dim - 4) * (deformed.dim - 5) // 2 + 2
    lc = LeviCivita(deformed.metric)
    pts = sample_sphere(deformed.n, 10, seed=42).points
    for B in alg.basis[[0, 1, 2, 3, -1]]:
        fld = linear_field(B)
        assert check_killing(lc, fld, pts).max() <= 1e-5


def test_deformed_decomposition(deformed):
    dec = standard_decomposition(deformed.isometry_algebra(), deformed.j0)
    assert [(round(r, 9), m) for r, m in dec.summary()] == [(0.0, 6), (2.0, 2)]


@pytest.mark.parametrize("n", [3, 4])
def test_deformed_invariance_algebra_is_every_linear_killing_field(n):
    """The linear Killing fields of gF are the null space of A -> F^T (L_{Ax} g) F
    over so(d), read at 40 points: it has the listed algebra's dimension, and
    the listed algebra lies in it.  Its singular values fall from ~3.6 to
    ~1e-12 with nothing between."""
    ds = build_deformed(n=n, c=0.3)
    lc = LeviCivita(ds.metric)
    X = sample_sphere(n, 40, seed=42).coords
    so = so_basis(ds.dim)
    sv = np.linalg.svd(lc.lie_metric_frame(so, X).reshape(len(so), -1), compute_uv=False)
    alg = ds.isometry_algebra()
    assert np.count_nonzero(sv <= 1e-8) == alg.dim
    assert sv[sv > 1e-8].min() > 1.0
    assert np.abs(lc.lie_metric_frame(alg.basis, X)).max() <= 1e-11


# -- inhomogeneous-rate structure ---------------------------------------------------

def test_irregular_default_rate(irregular):
    assert irregular.a.tag == "sqrt2"
    assert irregular.a.value() == pytest.approx(math.sqrt(2) - 1)
    assert irregular.profile().values()[0] == pytest.approx(math.sqrt(2))


def test_irregular_field_identities(irregular):
    lc = LeviCivita(irregular.metric)
    pts = sample_sphere(irregular.n, 25, seed=42).points
    st, T = built(lc, irregular.field, pts)
    assert check_unit_length(st).max() <= 1e-10
    assert check_killing(lc, irregular.field, pts).max() <= 1e-6
    assert check_kcontact(st).max() <= 1e-6
    assert check_sasakian(st, T).max() <= 1e-5
    assert check_nijenhuis(*built(lc, irregular.field, pts[:12])).max() <= 1e-4


def test_irregular_transverse_derivative(irregular):
    lc = LeviCivita(irregular.metric)
    pts = sample_sphere(irregular.n, 20, seed=42).points
    r = check_transverse_derivative(lc.structure_at(irregular.field, pts), irregular.j0)
    assert r.max() <= 1e-12


def test_transverse_derivative_reads_the_structure_and_takes_no_step(irregular, monkeypatch):
    """The check reads N from the structure: no derivative of its own, and no
    metric evaluation."""
    lc = LeviCivita(irregular.metric)
    X = sample_sphere(irregular.n, 20, seed=42).coords
    st = lc.structure_at(irregular.field, X)
    calls = []
    for name in ("jet", "metric_and_field", "extended_metric"):
        monkeypatch.setattr(LeviCivita, name, lambda *args, _name=name: calls.append(_name))
    monkeypatch.setattr(MetricField, "matrix_at", lambda *args: calls.append("matrix"))
    r = check_transverse_derivative(st, irregular.j0)
    assert calls == []
    _, _, vt = np.linalg.svd(np.stack([X, X @ irregular.j0.T], axis=1))
    V = np.swapaxes(vt[:, 2:], -1, -2)
    D = st.nabla_endo @ V - irregular.j0 @ V
    assert np.array_equal(r, np.abs(D).reshape(len(X), -1).max(axis=1))


def test_irregular_flow_is_dense_in_two_torus(irregular):
    c = classify(irregular.profile())
    assert c.kind == "irregular"
    assert c.closure_torus_dim == 2


def test_irregular_central_pair(irregular):
    out = centralizer_check(irregular.isometry_algebra(),
                            [irregular.j0, irregular.j1])
    assert out["ok"]


def test_irregular_decomposition_single_block(irregular):
    dec = standard_decomposition(irregular.isometry_algebra(),
                                 irregular.field.matrix)
    assert [(round(r, 9), m) for r, m in dec.summary()] == [(0.0, 5)]


def test_irregular_rejects_degenerate_offset():
    from killinglab import ExactScalar
    from fractions import Fraction
    with pytest.raises(MetricDegeneracyError):
        build_irregular(a=ExactScalar(Fraction(-999, 1000)))


def _embedded(block, d, offset):
    out = np.zeros((d, d))
    out[offset:offset + len(block), offset:offset + len(block)] = block
    return out


def _unitary_block_basis_loop(n):
    """One matrix at a time: J2 on each diagonal 2x2 block, then for p < q
    Id at (p, q) with -Id at (q, p), and J2 at both."""
    def put(p, q, block):
        A = np.zeros((2 * n, 2 * n))
        A[2 * p:2 * p + 2, 2 * q:2 * q + 2] = block
        return A
    basis = [put(p, p, J2) for p in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            basis.append(put(p, q, np.eye(2)) - put(q, p, np.eye(2)))
            basis.append(put(p, q, J2) + put(q, p, J2))
    return np.array(basis)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_invariance_algebras_are_the_per_generator_stacks(n):
    """unitary_block_basis and the gF and irregular invariance algebras,
    built by index and slice assignment, equal their one-matrix-at-a-time
    definitions bit for bit."""
    assert unitary_block_basis(n).tobytes() == _unitary_block_basis_loop(n).tobytes()
    ir = build_irregular(n=n)
    want = [_embedded(J2, ir.dim, 0)] + [_embedded(B, ir.dim, 2)
                                          for B in _unitary_block_basis_loop(n)]
    assert ir.isometry_algebra().basis.tobytes() == np.array(want).tobytes()
    ds = build_deformed(n=n + 2)
    want = ([_embedded(B, ds.dim, 0) for B in so_basis(ds.dim - 4)] + [ds.j0]
            + [_embedded(RIGHT_J, ds.dim, ds.dim - 4)])
    assert ds.isometry_algebra().basis.tobytes() == np.array(want).tobytes()


def test_closed_form_lift_solve_matches_lapack(hopf):
    """The adjoint lift dpi^T u against LAPACK's solve of the regularised
    pushforward Gram G = dpi P_H dpi^T + 4 y y^T, lifted by P_H dpi^T, and the
    lift's defining properties for tangent base vectors."""
    xs = hopf_sample_filter(sample_sphere(1, 60, seed=13).coords)
    ys = hopf_projection(xs)
    rng = np.random.default_rng(14)
    us = rng.normal(size=(2, len(xs), 3))
    us -= (us * ys).sum(-1, keepdims=True) * ys / (ys * ys).sum(-1, keepdims=True)
    got = horizontal_lift_batch(xs, us)
    dpi = hopf_differential(xs)
    xis = xs @ hopf.j0.T
    PH = np.eye(4) - xs[:, :, None] * xs[:, None, :] - xis[:, :, None] * xis[:, None, :]
    G = dpi @ PH @ np.swapaxes(dpi, 1, 2) + 4.0 * ys[:, :, None] * ys[:, None, :]
    for r in range(2):
        want = (PH @ np.swapaxes(dpi, 1, 2) @ np.linalg.solve(G, us[r][..., None]))[..., 0]
        assert np.abs(got[r] - want).max() <= 1e-13
        assert np.abs((got[r] * xs).sum(-1)).max() <= 1e-13       # tangent
        assert np.abs((got[r] * xis).sum(-1)).max() <= 1e-13      # horizontal
        assert np.abs((dpi @ got[r][..., None])[..., 0] - us[r]).max() <= 1e-13


@pytest.mark.parametrize("owner", ["lifted_field_value", "solve_lift"])
def test_lift_refuses_a_fiber_point_off_the_sphere_by_name(hopf, owner):
    """A fiber point at 0 (where the pushforward vanishes) and a NaN point
    are refused where they enter, by the owner's name: the adjoint lift
    dpi^T u holds only on S^3."""
    lift = lifted_field_value if owner == "lifted_field_value" else solve_lift
    xs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    off = f"{owner} got a sample off the unit sphere: "
    with pytest.raises(ValueError, match=off + r".* = 1\.000e\+00"):
        lift(hopf, so3_basis()[0], xs)
    xs[1] = np.nan
    with pytest.raises(ValueError, match=off + ".* = nan"):
        lift(hopf, so3_basis()[0], xs)
