"""Tangent frames (closed form on the round metric, Cholesky form on any other),
the complement of excluded vectors and structure tensors over a whole sample,
against the one-point reference loops in tests/oracles.py."""

from __future__ import annotations

import numpy as np
import pytest

from killinglab.constructions import (
    build_deformed,
    build_irregular,
    build_quaternionic,
    build_round,
)
from killinglab.flows import parse_rate
from killinglab.metrics import (
    LeviCivita,
    MetricDegeneracyError,
    MetricField,
    g_orthonormal_complement,
    g_orthonormal_frame,
    general_field,
    linear_field,
)
from killinglab.sphere import SpherePoint, orthonormal_tangent_frame, sample_sphere

from oracles import (
    g_orthonormal_frame_exclude_mgs,
    g_orthonormal_frame_mgs,
    orthonormal_tangent_frame_mgs,
    second_nabla_round_loop,
)


def _pivot_points(d: int, seed: int) -> np.ndarray:
    """Unit points (d + 1, d): for each axis i one point whose largest |x_j| is
    at j = i (random sign), plus a tie |x_0| = |x_1| that argmax gives to 0."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.5, 0.5, (d + 1, d))
    X[np.arange(d), np.arange(d)] = rng.choice([-2.0, 2.0], d)
    X[d, :2] = [1.5, -1.5]
    return X / np.linalg.norm(X, axis=1)[:, None]


def _spd_metrics(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d, d)) * 0.4
    return np.eye(d) + A @ np.swapaxes(A, -1, -2)


@pytest.mark.parametrize("d", [4, 8, 12])
def test_frames_match_gram_schmidt_at_every_pivot(d):
    X = _pivot_points(d, seed=d)
    assert sorted(set(np.argmax(np.abs(X), axis=1))) == list(range(d))
    M = _spd_metrics(len(X), d, seed=100 + d)
    E_ref = np.stack([orthonormal_tangent_frame_mgs(x) for x in X])
    F_ref = np.stack([g_orthonormal_frame_mgs(m, x) for m, x in zip(M, X)])
    assert np.abs(orthonormal_tangent_frame(X) - E_ref).max() <= 1e-13
    assert np.abs(g_orthonormal_frame(M, X) - F_ref).max() <= 1e-13
    for i in range(len(X)):
        assert np.abs(orthonormal_tangent_frame(X[i]) - E_ref[i]).max() <= 1e-13
        assert np.abs(g_orthonormal_frame(M[i], X[i]) - F_ref[i]).max() <= 1e-13


def test_chart_pole_frames_are_exact():
    for sign in (1.0, -1.0):
        e1 = np.zeros(6)
        e1[0] = sign
        assert np.array_equal(orthonormal_tangent_frame(e1), orthonormal_tangent_frame_mgs(e1))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_round_structure_frame_is_gram_schmidt(n):
    """The round metric's structure frame, the closed-form Euclidean frame,
    is g-Gram-Schmidt with g = Id at every pivot, for a stack and one point."""
    rs = build_round(n)
    lc = LeviCivita(rs.metric)
    d = 2 * n + 2
    X = _pivot_points(d, seed=20 + d)
    ref = np.stack([g_orthonormal_frame_mgs(np.eye(d), x) for x in X])
    assert np.abs(lc.structure_at(rs.field, X).frame - ref).max() <= 1e-13
    for i in range(len(X)):
        assert np.abs(lc.structure_at(rs.field, X[i]).frame - ref[i]).max() <= 1e-13


def _up_to_column_signs(A: np.ndarray, B: np.ndarray) -> float:
    """max |A - B| with each column of A's sign chosen to fit B best."""
    return float(np.minimum(np.abs(A - B).max(axis=0), np.abs(A + B).max(axis=0)).max(initial=0.0))


@pytest.mark.parametrize("label", ["round", "gF", "irregular", "quaternionic-1",
                                   "quaternionic-2"])
def test_complement_matches_gram_schmidt_with_exclusions(label):
    """The ξ-horizontal frame (one excluded field) and the triple's horizontal
    frame (three) in the structure frame's coordinates, against modified
    Gram-Schmidt of the excluded vectors and the Euclidean frame: at every
    pivot, and at constructed exclusions whose frame coordinates on the last
    e seed axes have a singular value 1e-9 or 0, where the last seed is
    (nearly) dependent and the reference drops it for the next one."""
    if label.startswith("quaternionic"):
        qs = build_quaternionic(int(label[-1]))
        metric, fields = qs.metric, [linear_field(g) for g in qs.generators]
    else:
        metric, fields, _ = _structure(label)
    lc, d, e = LeviCivita(metric), metric.dim, len(fields)
    k = d - 1
    X = _pivot_points(d, seed=30 + d)
    M = metric.matrix_at(X)
    F = lc.frame(X, M)
    V = [f.value(X) for f in fields]
    C = g_orthonormal_complement(F, M, X, V)
    assert C.shape == (len(X), k, k - e)
    for i in range(len(X)):
        ref = g_orthonormal_frame_exclude_mgs(M[i], X[i], [v[i] for v in V])
        assert np.abs(F[i] @ C[i] - ref).max() <= 1e-13
        one = g_orthonormal_complement(F[i], M[i], X[i], [v[i] for v in V])
        assert np.abs(F[i] @ one - ref).max() <= 1e-13
    rng = np.random.default_rng(d + e)
    for s in (1e-9, 0.0):
        c = rng.standard_normal((k, e))
        U, _, Wt = np.linalg.svd(rng.standard_normal((e, e)))
        c[k - e:] = U @ np.diag([1.0] * (e - 1) + [s]) @ Wt
        Vc = list((F[0] @ c).T)
        ref = g_orthonormal_frame_exclude_mgs(M[0], X[0], Vc)
        assert _up_to_column_signs(F[0] @ g_orthonormal_complement(F[0], M[0], X[0], Vc),
                                   ref) <= 1e-13


def _structure(label: str):
    """Metric, fields and the per-point tolerance: closed form or FD."""
    if label == "round":
        rs = build_round(2)
        return rs.metric, [rs.field], 1e-14
    if label == "quaternionic":
        qs = build_quaternionic(1)
        return qs.metric, [linear_field(g) for g in qs.generators], 1e-14
    st = (build_deformed(n=3, c=0.3) if label == "gF"
          else build_irregular(n=2, a=parse_rate("irr:sqrt2m1")))
    return st.metric, [st.field], 1e-12


@pytest.mark.parametrize("label", ["round", "quaternionic", "gF", "irregular"])
def test_stacked_structure_equals_per_point(label):
    metric, fields, tol = _structure(label)
    lc = LeviCivita(metric)
    pts = sample_sphere(metric.dim // 2 - 1, 8, seed=11).points
    X = np.stack([p.coords for p in pts])
    for fld in fields:
        st = lc.structure_at(fld, X)
        lie = lc.lie_metric_frame(fld, X)
        for i, p in enumerate(pts):
            one = lc.structure_at(fld, p)
            for attr in ("xi", "metric_matrix", "frame", "nabla_endo", "dxi",
                         "phi_frame", "phi_ambient"):
                diff = np.abs(getattr(st, attr)[i] - getattr(one, attr)).max()
                assert diff <= tol, (label, attr, diff)
            assert np.abs(lie[i] - lc.lie_metric_frame(fld, p)).max() <= tol


def test_second_nabla_einsum_equals_loop(round2, lc_round2):
    pts = sample_sphere(2, 6, seed=3).points
    X = np.stack([p.coords for p in pts])
    rng = np.random.default_rng(5)
    frames = np.stack([orthonormal_tangent_frame(X), rng.standard_normal((6, 6, 5))])
    E = round2.field.matrix
    for F in frames:
        T = lc_round2.second_nabla_frame(round2.field, X, F)
        for i, p in enumerate(pts):
            ref = second_nabla_round_loop(E, p.coords, F[i])
            assert np.abs(T[i] - ref).max() <= 1e-14
            one = lc_round2.second_nabla_frame(round2.field, p, F[i])
            assert np.abs(one - ref).max() <= 1e-14


# -- degenerate metrics -----------------------------------------------------------

FLIP = np.diag([1.0, 1.0, -0.5, 1.0])  # signature flip: not a metric
E1 = np.array([1.0, 0.0, 0.0, 0.0])
GOOD = np.array([0.0, 0.6, 0.0, 0.8])


def test_degenerate_metric_frame_names_point_and_pivot():
    assert issubclass(MetricDegeneracyError, ValueError)
    with pytest.raises(MetricDegeneracyError, match=r"pivot 1 .* -5\.000e-01"):
        g_orthonormal_frame(FLIP, E1)
    # a positive pivot below FRAME_RANK_TOL^2 is degenerate too
    with pytest.raises(MetricDegeneracyError, match=r"pivot 1 .* 1\.000e-20"):
        g_orthonormal_frame(np.diag([1.0, 1.0, 1e-20, 1.0]), E1)
    M = np.stack([np.eye(4), FLIP])
    with pytest.raises(MetricDegeneracyError, match=r"x = \[1\.0, 0\.0, 0\.0, 0\.0\]"):
        g_orthonormal_frame(M, np.stack([GOOD, E1]))


def test_degenerate_metric_structure_raises_before_differencing():
    metric = MetricField(lambda x: np.broadcast_to(FLIP, x.shape[:-1] + (4, 4)),
                         dim=4)
    lc = LeviCivita(metric)
    fld = general_field(lambda x: pytest.fail("field evaluated on a degenerate metric"))
    with pytest.raises(MetricDegeneracyError, match="pivot 1"):
        lc.structure_at(fld, SpherePoint(E1))
    with pytest.raises(MetricDegeneracyError, match="pivot"):
        lc.structure_at(fld, np.stack([GOOD, E1]))
