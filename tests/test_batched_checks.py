"""Whole-sample Nijenhuis torsion, finite-difference second derivative,
contact-form comparison, horizontal split and the complement of excluded
vectors against the one-point references in tests/oracles.py."""

from __future__ import annotations

from dataclasses import is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from killinglab import cli, metrics
from killinglab.constructions import (
    build_deformed,
    build_irregular,
    build_quaternionic,
    build_round,
)
from killinglab.metrics import (
    DEFAULT_FD_STEP,
    LeviCivita,
    MetricDegeneracyError,
    g_orthonormal_complement,
    g_orthonormal_frame,
    general_field,
    linear_field,
)
from killinglab.sphere import (
    SpherePoint,
    chart_index,
    default_atlas,
    matvec,
    orthonormal_tangent_frame,
    rowdot,
    sample_sphere,
)
from killinglab.verify import (
    WEDGE_SIGN,
    check_contact_form_preserved,
    check_killing,
    check_nijenhuis,
    check_sasakian,
    horizontal_split,
    nijenhuis_residual,
)

from oracles import (
    built,
    chart_nabla_endo_per_point,
    contact_form_residual_per_point,
    g_orthonormal_frame_exclude_mgs,
    horizontal_split_per_point,
    nijenhuis_residual_per_point,
    nijenhuis_stencil_and_bound,
    second_nabla_fd_per_point,
    second_nabla_nested_and_bound,
    second_nabla_nested_per_point,
    second_nabla_round_loop,
)

LABELS = ["round", "gF", "irregular", "quaternionic"]


def _structure(label: str):
    """Metric, fields and the sphere's n for each example."""
    if label == "round":
        rs = build_round(2)
        return rs.metric, [rs.field], 2
    if label == "quaternionic":
        qs = build_quaternionic(1)
        return qs.metric, [linear_field(g) for g in qs.generators], 3
    if label == "gF":
        ds = build_deformed(n=3, c=0.3)
        return ds.metric, [ds.field], 3
    ir = build_irregular(n=2)
    return ir.metric, [ir.field], 2


def _mixed_sample(n: int, count: int, seed: int) -> np.ndarray:
    """Unit points (count, d) in both charts of the chart oracles, the first
    three with |x0| < 1e-3, where a stencil of step 1.5e-3 crosses from one
    chart into the other."""
    X = sample_sphere(n, count, seed=seed).arrays()
    X[:3, 0] = [5e-4, -3e-4, 0.0]
    X /= np.linalg.norm(X, axis=1)[:, None]
    assert set(chart_index(X, default_atlas(2 * n + 2))) == {0, 1}
    return X


def _rel(a, b) -> float:
    return float(np.abs(a - b).max() / max(1.0, float(np.abs(b).max())))


@pytest.mark.parametrize("label", LABELS)
def test_batched_nijenhuis_matches_reference(label):
    metric, fields, n = _structure(label)
    lc = LeviCivita(metric)
    X = _mixed_sample(n, 7, seed=23)
    got = nijenhuis_residual(*built(lc, fields[0], X))
    assert got.shape == (len(X),)
    if metric.exact_round:
        # nabla^2 xi in closed form: only the stencil reference carries FD noise
        ref = [nijenhuis_residual_per_point(lc, fields[0], SpherePoint(x)) for x in X]
        assert got.max() <= 1e-14 and np.abs(got - ref).max() <= 1e-9
    else:
        ref, bound = nijenhuis_stencil_and_bound(lc, fields[0], X)
        assert np.all(np.abs(got - ref) <= bound)
    assert (nijenhuis_residual(*built(lc, fields[0], SpherePoint(X[4])))
            == pytest.approx(got[4], abs=1e-12))


@pytest.mark.parametrize("build, n", [(build_round, 1), (build_round, 2), (build_round, 3),
                                      (build_quaternionic, 0), (build_quaternionic, 1),
                                      (build_quaternionic, 2)])
def test_nijenhuis_closed_form_is_exact(build, n):
    st = build(n)
    lc = LeviCivita(st.metric)
    X = sample_sphere(st.metric.dim // 2 - 1, 200, seed=42).coords
    for fld in (st.generators if build is build_quaternionic else [st.field]):
        assert check_nijenhuis(*built(lc, fld, X)).max() <= 1e-14


@pytest.mark.parametrize("label", LABELS)
def test_batched_fd_second_nabla_matches_reference(label):
    metric, fields, n = _structure(label)
    lc = LeviCivita(metric)
    X = _mixed_sample(n, 6, seed=29)
    F = g_orthonormal_frame(metric.matrix_at(X), X)
    general = general_field(fields[0].func)  # finite differences on the round metric too
    T = lc.second_nabla_frame(general, X, F)
    for i, x in enumerate(X):
        ref = second_nabla_fd_per_point(lc, fields[0], x, F[i])
        assert _rel(T[i], ref) <= 1e-12
        assert _rel(lc.second_nabla_frame(general, SpherePoint(x), F[i]), ref) <= 1e-12


@pytest.mark.parametrize("label", ["gF", "irregular"])
def test_flat_second_nabla_within_the_step_halving_bound_of_the_nested_one(label):
    metric, fields, n = _structure(label)
    lc = LeviCivita(metric)
    X = _mixed_sample(n, 6, seed=31)
    F = g_orthonormal_frame(metric.matrix_at(X), X)
    general = general_field(fields[0].func)  # the flat stencil; the linear field takes the jet
    nested, bound = second_nabla_nested_and_bound(lc, general, X, F)
    gap = np.abs(lc.second_nabla_frame(general, X, F) - nested).reshape(len(X), -1).max(axis=1)
    assert np.all(gap <= bound)


@pytest.mark.parametrize("n", [1, 2])
def test_flat_second_nabla_is_closer_to_the_exact_wedge_than_the_nested_one(n):
    """The irregular structure is Sasakian, so nabla^2 xi(u, v) is the closed
    form WEDGE_SIGN (g(u, v) xi - eta(v) u) on its g-orthonormal frame; the
    nested stencil is the chart oracle, and the linear field's jet meets the
    closed form to rounding."""
    ir = build_irregular(n=n)
    lc = LeviCivita(ir.metric)
    X = sample_sphere(n, 12, seed=67).coords
    M = ir.metric.matrix_at(X)
    F = g_orthonormal_frame(M, X)
    xi = ir.field.value(X)
    eta_f = (matvec(M, xi)[:, None, :] @ F)[:, 0]
    exact = WEDGE_SIGN * (np.eye(F.shape[-1]) * xi[:, :, None, None]
                          - np.einsum("nj,ndi->ndij", eta_f, F))
    flat = np.abs(lc.second_nabla_frame(general_field(ir.field.func), X, F) - exact).max()
    nested = max(np.abs(second_nabla_nested_per_point(lc, ir.field, x, f) - e).max()
                 for x, f, e in zip(X, F, exact))
    assert flat <= nested
    assert np.abs(lc.second_nabla_frame(ir.field, X, F) - exact).max() <= 1e-13


def test_ambient_derivatives_of_a_general_copy_meet_the_round_closed_forms():
    """On the round sphere the field J0 x has N = P J0 P and the closed-form
    nabla^2 of ``second_nabla_round_loop``.  The ambient differences of a
    general copy lie within their step-halving bound 2 (4/3) max |A(h) -
    A(h/2)| of them, and no farther than the chart oracles (the chart
    endomorphism and the nested chart stencil) on the same sample."""
    rs = build_round(2)
    lc, half = LeviCivita(rs.metric), LeviCivita(rs.metric, fd_step=DEFAULT_FD_STEP / 2)
    general = general_field(rs.field.func)
    X = sample_sphere(2, 20, seed=5).coords
    F = g_orthonormal_frame(rs.metric.matrix_at(X), X)
    E = rs.field.matrix
    P = np.eye(6) - X[:, :, None] * X[:, None, :]
    N = lc.nabla_endo(general, X)
    T = lc.second_nabla_frame(general, X, F)
    T_exact = np.array([second_nabla_round_loop(E, x, f) for x, f in zip(X, F)])
    N_err, T_err = np.abs(N - P @ E @ P).max(), np.abs(T - T_exact).max()
    assert N_err <= 2.0 * (4.0 / 3.0) * np.abs(N - half.nabla_endo(general, X)).max()
    assert T_err <= 2.0 * (4.0 / 3.0) * np.abs(T - half.second_nabla_frame(general, X, F)).max()
    N_chart = np.array([chart_nabla_endo_per_point(lc, general, x) for x in X])
    T_chart = np.array([second_nabla_nested_per_point(lc, general, x, f) for x, f in zip(X, F)])
    assert N_err <= np.abs(N_chart - P @ E @ P).max()
    assert T_err <= np.abs(T_chart - T_exact).max()


def test_second_nabla_converges_quadratically_in_fd_step():
    """The stencil of a general copy converges as h^2, to the jet of the
    linear field: halving the step quarters both the change and the gap."""
    metric, fields, n = _structure("gF")
    X = _mixed_sample(n, 6, seed=71)
    F = g_orthonormal_frame(metric.matrix_at(X), X)
    general = general_field(fields[0].func)
    T = [LeviCivita(metric, fd_step=h).second_nabla_frame(general, X, F)
         for h in (4e-4, 2e-4, 1e-4, 5e-5)]
    for a, b, c in zip(T, T[1:], T[2:]):
        # O(h^2): halving the step quarters the change
        assert 3.5 <= np.abs(a - b).max() / np.abs(b - c).max() <= 4.5
    gap = [np.abs(t - LeviCivita(metric).second_nabla_frame(fields[0], X, F)).max() for t in T]
    assert all(3.5 <= a / b <= 4.5 for a, b in zip(gap[:3], gap[1:3]))


@pytest.mark.parametrize("label", ["gF", "irregular"])
def test_second_nabla_evaluates_the_flat_stencil_once_per_point(label, monkeypatch):
    """In chunks of 16 points, 35 points take three metric calls."""
    metric, fields, n = _structure(label)
    rows = []

    def counted(x):
        rows.append(x.reshape(-1, x.shape[-1]).shape[0])
        return metric.matrix_at(x)

    lc = LeviCivita(metrics.MetricField(counted, metric.dim))
    X = _mixed_sample(n, 35, seed=73)
    F = g_orthonormal_frame(metric.matrix_at(X), X)
    d = X.shape[-1]
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 16 * metrics.sample_bytes(d, stencil=True))
    lc.second_nabla_frame(fields[0], X, F)
    assert len(rows) == 3 and sum(rows) == len(X) * (d * d + d + 1)


@pytest.mark.parametrize("label", LABELS)
def test_contact_form_matches_reference(label):
    metric, fields, n = _structure(label)
    lc, lc_round = LeviCivita(metric), LeviCivita(build_round(n).metric)
    X = _mixed_sample(n, 8, seed=31)
    pts = [SpherePoint(x) for x in X]
    ref, ref_half = (np.array([contact_form_residual_per_point(lc, lc_round, fields[0], p, h)
                               for p in pts]) for h in (lc.fd_step, lc.fd_step / 2))
    r = check_contact_form_preserved(lc, lc_round, fields[0], lc.structure_at(fields[0], pts))
    # an O(1) one-form differenced at step 1e-4 carries rounding times 1 / 2h; off the
    # round metric the jet is exact, and the reference within (4/3) of its step-halving
    # change of it (Richardson), the factor 2 margin
    bound = 0.0 if metric.exact_round else 2.0 * (4.0 / 3.0) * np.abs(ref - ref_half).max()
    assert np.abs(r - ref).max() <= bound + 1e-10 * max(1.0, float(ref.max()))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_stacked_horizontal_split_matches_reference(m):
    qs = build_quaternionic(m)
    lc = LeviCivita(qs.metric)
    X = _mixed_sample(2 * m + 1, 6, seed=37)
    sp = horizontal_split(lc.structure_at(qs.generators, X))
    assert sp.ok and sp.horizontal_frame.shape == (6, 4 * m + 4, 4 * m)
    for i, x in enumerate(X):
        ref = horizontal_split_per_point(lc, qs.generators, SpherePoint(x))
        assert (sp.dim_plus[i], sp.dim_minus[i]) == (ref["dim_plus"], ref["dim_minus"])
        for got, key in ((sp.split.involution_residual, "involution"),
                         (sp.split.symmetry_residual, "symmetry"),
                         (sp.invariance_residual, "invariance"),
                         (sp.commutation_residual, "commutation")):
            assert got[i] <= 1e-13 and ref[key] <= 1e-13
        one = horizontal_split(lc.structure_at(qs.generators, SpherePoint(x)))
        assert isinstance(one.dim_plus, int) and isinstance(one.invariance_residual, float)
        assert np.abs(one.p_frame - sp.p_frame[i]).max(initial=0.0) <= 1e-14


# -- shared structures --------------------------------------------------------------

@pytest.mark.parametrize("label", ["round", "gF", "irregular"])
def test_shared_structure_and_second_derivative_give_identical_checks(label):
    metric, fields, n = _structure(label)
    fld, lc = fields[0], LeviCivita(metric)
    X = sample_sphere(n, 30, seed=53).coords
    st = lc.structure_at(fld, X)
    T = lc.second_nabla_frame(fld, X, st.frame)
    T_before = T.copy()
    assert np.array_equal(check_killing(lc, fld, X, frame=st.frame), check_killing(lc, fld, X))
    check_sasakian(st, T)
    check_nijenhuis(st, T)
    assert np.array_equal(T, T_before)  # a shared T is read, never written


def test_shared_structures_of_the_gf_and_quaternionic_batteries():
    ds = build_deformed(n=3, c=0.3)
    lc = LeviCivita(ds.metric)
    X = sample_sphere(3, 30, seed=59).coords
    alg = ds.isometry_algebra()
    own = [check_killing(lc, linear_field(B), X[:12]) for B in alg.basis]
    # on the first chunk's frame when the chunk holds the rows, else on its own
    for x in (X[:12], X[:5]):
        c = SimpleNamespace(lc=lc, alg=alg, X=X[:12], x=x, st=lc.structure_at(ds.field, x))
        shared, detail = cli._INVARIANCE.detail(cli._INVARIANCE.residual(c), c)
        assert np.array_equal(shared, np.stack(own)) and detail == ""

    qs = build_quaternionic(1)
    lc = LeviCivita(qs.metric)
    X = sample_sphere(3, 30, seed=61).coords
    triple = lc.structure_at(qs.generators, X)
    # one metric, one frame and one x for the three fields, whose arrays carry G in front
    assert triple.frame.shape == (30, 8, 7) and triple.xi.shape == (3, 30, 8)
    assert triple.nabla_endo.shape == (3, 30, 8, 8)


@pytest.mark.parametrize("n", [1, 2])
def test_killing_check_of_a_generator_stack_on_the_round_metric(n):
    """The closed form over a stack: each slice of the Lie derivative is its
    generator's own, and the one check is the max and the mean of means of
    the per-generator checks."""
    rs = build_round(n)
    lc = LeviCivita(rs.metric)
    X = sample_sphere(n, 20, seed=67).coords
    basis = rs.isometry_algebra().basis
    F = g_orthonormal_frame(rs.metric.matrix_at(X), X)
    L = lc.lie_metric_frame(basis, X, frame=F)
    assert L.shape[0] == len(basis)
    assert all(np.array_equal(L[i], lc.lie_metric_frame(linear_field(B), X, frame=F))
               for i, B in enumerate(basis))
    shared = check_killing(lc, basis, X, frame=F)
    own = [check_killing(lc, linear_field(B), X, frame=F) for B in basis]
    assert np.array_equal(shared, np.stack(own))
    # the Killing row flags a stack one of whose generators vanishes on the sample
    for stack, flag in ((basis, ""), (np.concatenate([basis[:1], np.zeros_like(basis[:1])]),
                                      "degenerate: field vanishes on all samples")):
        c = SimpleNamespace(lc=lc)
        row = cli._killing_row("killing", 1e-10, lambda c: (stack, X, None, None), False)
        res, detail = row.detail(row.residual(c), c)
        assert res.shape == (len(stack), len(X)) and detail == flag


def test_killing_check_builds_a_missing_frame_once_for_a_chunked_stack(monkeypatch):
    """A generator stack over several chunks, with no frame given, is checked
    on one frame built once at X, and reads what the frame-given call reads."""
    ds = build_deformed(n=3, c=0.3)
    lc = LeviCivita(ds.metric)
    X = sample_sphere(3, 12, seed=71).coords
    basis = ds.isometry_algebra().basis
    want = check_killing(lc, basis, X, frame=lc.frame(X, ds.metric.matrix_at(X)))
    # two generators a chunk: the check's own budget of 128 (N + 1) d^2 bytes each
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 2 * 128 * (len(X) + 1) * X.shape[1] ** 2)
    assert len(metrics.sample_chunks(len(basis), 128 * (len(X) + 1) * X.shape[1] ** 2)) == 4
    at_X = []
    matrix_at = metrics.MetricField.matrix_at

    def counted(self, x):
        at_X.append(np.shape(x) == X.shape and np.array_equal(x, X))
        return matrix_at(self, x)

    monkeypatch.setattr(metrics.MetricField, "matrix_at", counted)
    got = check_killing(lc, basis, X)
    assert sum(at_X) == 1
    assert np.array_equal(got, want)


@pytest.mark.parametrize("example, params", [
    ("round", {"n": 2}), ("gF", {"n": 3}), ("irregular", {"n": 2}), ("quaternionic", {"m": 1})])
def test_each_chunk_evaluates_the_battery_metric_at_its_points_only_in_structure_at(
        example, params, monkeypatch):
    """In a battery streamed in two chunks, every evaluation of its metric at
    a chunk's own points comes from structure_at, once a structure built
    there: the checks read the metric and eta = M xi from the structures."""
    battery, cfg = cli._BATTERIES[example], cli.RunConfig(example=example, samples=40, **params)
    d = 4 * cfg.m + 4 if example == "quaternionic" else 2 * cfg.n + 2
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 20 * metrics.sample_bytes(d, stencil=False))
    calls, built_at, inside = [], [], []
    matrix_at, structure_at = metrics.MetricField.matrix_at, LeviCivita.structure_at

    def recorded_matrix_at(self, x):
        if np.ndim(x) == 2:
            calls.append((self, np.array(x), bool(inside)))
        return matrix_at(self, x)

    def recorded_structure_at(self, fld, x):
        built_at.append(np.array(x))
        inside.append(True)
        try:
            return structure_at(self, fld, x)
        finally:
            inside.pop()

    monkeypatch.setattr(metrics.MetricField, "matrix_at", recorded_matrix_at)
    monkeypatch.setattr(LeviCivita, "structure_at", recorded_structure_at)
    c = battery.context(cfg)
    chunks = cli._chunks(c.X)
    assert len(chunks) == 2
    for i, x in enumerate(chunks):
        battery.evaluate(c, x, not i)

    def same(y, x):
        return y.shape == x.shape and np.array_equal(y, x)

    for x in chunks:
        structures = sum(same(y, x) for y in built_at)
        at_x = [within for metric, y, within in calls if metric is c.metric and same(y, x)]
        assert structures == 1
        assert at_x == [True] * structures, example


@pytest.mark.parametrize("example, params", [("gF", {"n": 3}), ("irregular", {"n": 2})])
def test_each_chunk_of_a_jet_battery_builds_its_jet_once_and_evaluates_only_the_sample(
        example, params, monkeypatch):
    """In a battery streamed in two chunks, each chunk builds its jet once, in
    structure_at, which second_nabla_frame and the checks read; and no
    evaluation of a metric, the jet's ingredients included, reaches a point
    off the sample but the exact flow's, e^(+-tA) x."""
    battery, cfg = cli._BATTERIES[example], cli.RunConfig(example=example, samples=40, **params)
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 20 * metrics.sample_bytes(2 * cfg.n + 2,
                                                                           stencil=False))
    jets, evaluated, in_flow = [], [], []
    jet, matrix_at, flow = LeviCivita.jet, metrics.MetricField.matrix_at, LeviCivita.flow_lie_frame

    def recorded_jet(self, fld, x):
        jets.append((self, np.array(x)))
        return jet(self, fld, x)

    def recorded_matrix_at(self, x):
        if not in_flow:
            evaluated.append(np.array(x).reshape(-1, np.shape(x)[-1]))
        return matrix_at(self, x)

    def recorded_flow(self, *args, **kwargs):
        in_flow.append(True)
        try:
            return flow(self, *args, **kwargs)
        finally:
            in_flow.pop()

    monkeypatch.setattr(LeviCivita, "jet", recorded_jet)
    monkeypatch.setattr(metrics.MetricField, "matrix_at", recorded_matrix_at)
    monkeypatch.setattr(LeviCivita, "flow_lie_frame", recorded_flow)
    c = battery.context(cfg)
    chunks = cli._chunks(c.X)
    assert len(chunks) == 2
    for i, x in enumerate(chunks):
        battery.evaluate(c, x, not i)
    own = [x for lc, x in jets if lc is c.lc]
    assert len(own) == 2 and all(np.array_equal(y, x) for y, x in zip(own, chunks))
    sample = {tuple(row) for row in c.X}
    assert evaluated and all(tuple(row) in sample
                             for y in evaluated + [x for _, x in jets] for row in y)


def _same_arrays(a, b) -> bool:
    """Every field of two dataclasses equal bit for bit, nested ones (alone or
    in a list or tuple) field by field."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same_arrays(u, v) for u, v in zip(a, b))
    if not is_dataclass(a):
        return np.array_equal(np.asarray(a), np.asarray(b))
    fa, fb = vars(a), vars(b)
    return fa.keys() == fb.keys() and all(_same_arrays(fa[k], fb[k]) for k in fa)


@pytest.mark.parametrize("label", ["round", "gF", "irregular"])
def test_the_structure_at_a_point_is_its_row_of_the_sample_call(label):
    """One point (d,) and a sample (N, d) sum every row alike, so the
    structure at each sample point is that row of the sample's, bit for bit
    (the jet, which ``rows`` leaves out, row for row too)."""
    metric, fields, n = _structure(label)
    lc = LeviCivita(metric)
    X = sample_sphere(n, 30, seed=83).coords
    st = lc.structure_at(fields[0], X)
    for i, x in enumerate(X):
        one = lc.structure_at(fields[0], x)
        assert _same_arrays(replace(one, jet=None), st.rows(i)), i
        if st.jet is not None:
            assert all(b is None if a is None else np.array_equal(a[0], b[i])
                       for a, b in zip(one.jet, st.jet)), i


@pytest.mark.parametrize("m", [0, 1])
def test_shared_frame_and_triple_give_identical_results(m):
    qs = build_quaternionic(m)
    lc = LeviCivita(qs.metric)
    X = sample_sphere(2 * m + 1, 30, seed=67).coords
    F = lc.frame(X, qs.metric.matrix_at(X))
    for g in qs.generators:
        assert np.array_equal(lc.structure_at(g, X).frame, F)
    triple = lc.structure_at(qs.generators, X)
    assert np.array_equal(triple.frame, F)
    # the rows of a triple are the triple of those rows
    assert _same_arrays(triple.rows(slice(10)), lc.structure_at(qs.generators, X[:10]))
    assert _same_arrays(horizontal_split(triple.rows(slice(10))),
                        horizontal_split(lc.structure_at(qs.generators, X[:10])))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_each_slice_of_a_stacked_structure_is_its_fields_own(m):
    """structure_at and second_nabla_frame on the (3, d, d) generator stack:
    slice g of every per-field array, at one point and at a sample, is the
    call on the g-th field bit for bit, and the shared arrays are its own."""
    qs = build_quaternionic(m)
    lc = LeviCivita(qs.metric)
    X = sample_sphere(2 * m + 1, 30, seed=73).coords
    for x in (X[4], X):
        st = lc.structure_at(qs.generators, x)
        T = lc.second_nabla_frame(qs.generators, x, st.frame)
        assert st.xi.shape == (3,) + x.shape and T.shape[0] == 3
        for g, fld in enumerate(qs.generators):
            own = lc.structure_at(fld, x)
            assert _same_arrays(st.fields(g), own)
            assert np.array_equal(T[g], lc.second_nabla_frame(fld, x, own.frame))


def test_a_stack_on_a_metric_without_closed_forms_is_refused_by_name():
    ds = build_deformed(n=3, c=0.3)
    lc = LeviCivita(ds.metric)
    X = sample_sphere(3, 5, seed=79).coords
    gens = ds.isometry_algebra().basis[:3]
    with pytest.raises(ValueError, match=r"structure_at takes a stack of generators only on "
                                         r"the round metric.*deformed\(c=0.3\) metric takes "
                                         r"one field at a time"):
        lc.structure_at(gens, X)
    with pytest.raises(ValueError, match="second_nabla_frame takes a stack of generators only"):
        lc.second_nabla_frame(gens, X, lc.frame(X, ds.metric.matrix_at(X)))


@pytest.mark.parametrize("structure", [build_round(2), build_deformed(n=3, c=0.3)],
                         ids=["round", "deformed"])
def test_a_stack_skew_only_to_a_fit_residual_is_measured_not_refused(structure):
    """A least-squares lift is skew only up to its residual, which the hopf
    battery reports in ``lift_skewness`` (bound 1e-10); ``check_killing``
    measures such a stack, on the closed form and on the exact flow, though
    ``linear_field`` refuses it."""
    lc = LeviCivita(structure.metric)
    X = sample_sphere(structure.metric.dim // 2 - 1, 6, seed=83).coords
    basis = structure.isometry_algebra().basis[:3]
    S = np.random.default_rng(83).standard_normal(basis.shape)
    fit = basis + 1e-11 * (S + np.swapaxes(S, -1, -2))
    with pytest.raises(ValueError, match="skew-symmetric generator"):
        linear_field(fit)
    got = check_killing(lc, fit, X)
    assert got.shape == (3, len(X)) and np.all(np.isfinite(got))
    assert np.abs(got - check_killing(lc, basis, X)).max() < 1e-9


@pytest.mark.parametrize("example, params", [
    ("round", {"n": 2}), ("gF", {"n": 3}), ("irregular", {"n": 2})])
def test_each_chunk_evaluates_the_field_at_its_points_only_in_structure_at(
        example, params, monkeypatch):
    """In a unit battery streamed in two chunks, the field is evaluated at a
    chunk's own points once, in structure_at: the Killing row's degenerate
    flag reads the values the structure holds."""
    battery, cfg = cli._BATTERIES[example], cli.RunConfig(example=example, samples=40, **params)
    monkeypatch.setattr(metrics, "CHUNK_BYTES",
                        20 * metrics.sample_bytes(2 * cfg.n + 2, stencil=False))
    calls = []
    value = metrics.VectorField.value

    def recorded_value(self, x):
        calls.append((self, np.array(x)))
        return value(self, x)

    monkeypatch.setattr(metrics.VectorField, "value", recorded_value)
    c = battery.context(cfg)
    chunks = cli._chunks(c.X)
    assert len(chunks) == 2
    for i, x in enumerate(chunks):
        battery.evaluate(c, x, not i)
    for x in chunks:
        at_x = [fld for fld, y in calls if y.shape == x.shape and np.array_equal(y, x)]
        assert at_x.count(c.field) == 1, example


def test_quaternionic_battery_builds_one_frame_and_one_structure_per_field(monkeypatch):
    from killinglab import cli, verify

    counts = {"frame": 0, "g_orthonormal_frame": 0, "structure_at": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    frame = counted("g_orthonormal_frame", metrics.g_orthonormal_frame)
    monkeypatch.setattr(metrics, "g_orthonormal_frame", frame)  # cli and verify build none
    monkeypatch.setattr(LeviCivita, "frame", counted("frame", LeviCivita.frame))
    monkeypatch.setattr(LeviCivita, "structure_at",
                        counted("structure_at", LeviCivita.structure_at))
    rep = cli._BATTERIES["quaternionic"](cli.RunConfig(example="quaternionic", m=1,
                                                       samples=20))
    assert rep.all_as_expected
    # the battery frame, in closed form (the horizontal split reads it, and the
    # closed-form battery runs no step canary, which would build one more);
    # one structure for xi_1..3 and the completed xi_3
    assert counts["frame"] == 1 and counts["g_orthonormal_frame"] == 0
    assert counts["structure_at"] == 1


# -- chunking and defaults ---------------------------------------------------------

@pytest.mark.parametrize("example, params", [
    ("round", {"n": 2}), ("gF", {"n": 3}), ("irregular", {"n": 2}), ("quaternionic", {"m": 1}),
    ("hopf-lift", {})], ids=["round", "gF", "irregular", "quaternionic", "hopf-lift"])
def test_results_do_not_depend_on_the_chunk_size(example, params, monkeypatch):
    """A battery streamed in 4 chunks (and the FD stencil and the lift
    quadrature in one point each) reports what it does in one chunk, byte
    for byte."""
    cfg = cli.RunConfig(example=example, samples=40, **{"n": 2, **params})
    chunks = []

    def counted(n, point_bytes):
        rows = metrics.sample_chunks(n, point_bytes)
        chunks.append(len(rows))
        return rows

    monkeypatch.setattr(cli, "sample_chunks", counted)
    one = cli._BATTERIES[example](cfg).to_json(include_timestamp=False)
    assert chunks[0] == 1  # the sample's, before any of an algebra's generators
    d = 4 * cfg.m + 4 if example == "quaternionic" else 4 if example == "hopf-lift" else 2 * cfg.n + 2
    monkeypatch.setattr(metrics, "CHUNK_BYTES", 13 * metrics.sample_bytes(d, stencil=False))
    chunks.clear()
    many = cli._BATTERIES[example](cfg).to_json(include_timestamp=False)
    assert chunks[0] == 4
    assert many == one

def test_nijenhuis_converges_quadratically_in_fd_step():
    """The steps keep every difference >= 100x its rounding floor: the second
    differences carry eps / h_2^2 = 0.3 eps / h^2, 1.7e-9 at h = 2e-4, against
    a smallest difference |r(4e-4) - r(2e-4)| of 2.9e-7 on irregular (whose
    torsion is truncation alone); at h = 5e-5 the floor, 2.6e-8, exceeds the
    difference |r(1e-4) - r(5e-5)| = 1.7e-8."""
    for label in ("gF", "irregular"):
        metric, fields, n = _structure(label)
        X = _mixed_sample(n, 6, seed=43)
        general = general_field(fields[0].func)  # the stencil; the linear field takes the jet
        r = [nijenhuis_residual(*built(LeviCivita(metric, fd_step=h), general, X))
             for h in (1.6e-3, 8e-4, 4e-4, 2e-4)]
        for a, b, c in zip(r, r[1:], r[2:]):
            # O(h^2): halving the step quarters the change
            assert 3.5 <= np.abs(a - b).max() / np.abs(b - c).max() <= 4.5


def test_checks_on_empty_sample_name_the_check(round2, lc_round2):
    with pytest.raises(ValueError, match="structure_at got no samples to evaluate"):
        lc_round2.structure_at(round2.field, np.empty((0, 6)))
    # a check that takes structures meets an empty sample at structure_at
    with pytest.raises(ValueError, match="structure_at got no samples to evaluate"):
        check_contact_form_preserved(lc_round2, lc_round2, round2.field,
                                     lc_round2.structure_at(round2.field, []))
    with pytest.raises(ValueError, match="'killing' got no samples to evaluate"):
        check_killing(lc_round2, round2.field, [])


def test_deformed_metric_matches_its_defining_formula():
    ds = build_deformed(n=3, c=0.3)
    X = _mixed_sample(3, 15, seed=47)
    for x in (X[5], X, np.stack([X, X[::-1]])):
        V = ds.x_field.func(x)
        F = np.asarray(ds.f_of(x))[..., None, None]
        nv = np.sqrt(rowdot(V, V))[..., None]
        nv = np.where(nv > 0.0, nv, 1.0)
        Xh, Yh = V / nv, matvec(ds.j0, V) / nv
        ref = (np.eye(8) + (np.exp(-2.0 * F) - 1.0) * (Xh[..., :, None] * Xh[..., None, :])
               + (np.exp(2.0 * F) - 1.0) * (Yh[..., :, None] * Yh[..., None, :]))
        assert np.array_equal(ds.metric.matrix_at(x), ref)


# -- the complement of excluded vectors --------------------------------------------------------------

def _tangent_exclusions(X: np.ndarray, e: int, seed: int) -> list[np.ndarray]:
    """e random tangent vectors (N, d) at each point of X."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(e):
        v = rng.standard_normal(X.shape)
        out.append(v - np.einsum("ni,ni->n", v, X)[:, None] * X)
    return out


def _spd(n: int, d: int, seed: int) -> np.ndarray:
    A = np.random.default_rng(seed).standard_normal((n, d, d)) * 0.4
    return np.eye(d) + A @ np.swapaxes(A, -1, -2)


@pytest.mark.parametrize("d", [4, 8, 12])
@pytest.mark.parametrize("e", [1, 3])
def test_complement_matches_gram_schmidt(d, e):
    X = np.random.default_rng(d + e).standard_normal((7, d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    M = _spd(7, d, seed=50 + d)
    V = _tangent_exclusions(X, e, seed=60 + d)
    if e < d - 1:
        # row 0: the first Euclidean frame column lies within 1e-10 of the span
        # of the exclusions; the reference drops it and takes the next one, so
        # only the spans agree there
        V[0][0] = orthonormal_tangent_frame(X[0])[:, 0] + 1e-10 * V[0][0]
    F = g_orthonormal_frame(M, X)
    C = g_orthonormal_complement(F, M, X, V)
    assert C.shape == (7, d - 1, d - 1 - e)
    for i in range(7):
        ref = g_orthonormal_frame_exclude_mgs(M[i], X[i], [v[i] for v in V])
        one = F[i] @ g_orthonormal_complement(F[i], M[i], X[i], [v[i] for v in V])
        assert np.abs(one - F[i] @ C[i]).max(initial=0.0) <= 1e-13
        if i == 0 and e < d - 1:
            assert np.abs(C[i].T @ C[i] - np.eye(d - 1 - e)).max() <= 1e-13
            assert np.abs(one @ one.T @ M[i] - ref @ ref.T @ M[i]).max() <= 1e-13
        else:
            assert np.abs(one - ref).max(initial=0.0) <= 1e-13


def test_dependent_or_normal_exclusions_and_whole_tangent_space():
    X = np.random.default_rng(3).standard_normal((4, 6))
    X /= np.linalg.norm(X, axis=1)[:, None]
    F, M = orthonormal_tangent_frame(X), np.eye(6)
    v = _tangent_exclusions(X, 1, seed=4)[0]
    with pytest.raises(ValueError, match="dependent"):
        g_orthonormal_complement(F, M, X, [v, 2.0 * v])
    with pytest.raises(ValueError, match="dependent"):
        g_orthonormal_complement(F[1], M, X[1], [v[1], -v[1]])
    # an exclusion with a normal component leaves no g-orthogonal tangent frame
    w = v.copy()
    w[2] += 1e-6 * X[2]
    with pytest.raises(MetricDegeneracyError, match="lost rank"):
        g_orthonormal_complement(F, M, X, [w])
    # the whole tangent space excluded: an empty frame at each point
    e1 = np.eye(4)[0]
    tangent = list(np.eye(4)[1:])
    F1 = orthonormal_tangent_frame(e1)
    assert g_orthonormal_complement(F1, np.eye(4), e1, tangent).shape == (3, 0)
    stack = np.stack([e1, -e1])
    C = g_orthonormal_complement(orthonormal_tangent_frame(stack), np.eye(4), stack,
                                 [np.stack([t, t]) for t in tangent])
    assert C.shape == (2, 3, 0)
