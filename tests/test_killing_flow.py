"""Killing checks of linear fields on non-round metrics by their exact flow
e^(tA), against scipy's ``expm``, the chart oracle's finite differences, and
the round closed form."""

from __future__ import annotations

import numpy as np
import pytest

from killinglab.constructions import build_deformed, build_irregular, build_quaternionic, build_round
from killinglab.flows import parse_rate
from killinglab.metrics import FLOW_TIME, LeviCivita, g_orthonormal_frame, linear_field, skew_exp
from killinglab.sphere import sample_sphere
from killinglab.verify import check_killing

from oracles import chart_nabla_endo_per_point


def _structure(label):
    if label == "gF":
        return build_deformed(n=3, c=0.3), 3
    return build_irregular(n=2, a=parse_rate("irr:sqrt2m1")), 2


def _rotation(d: int) -> np.ndarray:
    """E_{0,d-1}: rotates the first and last axes, not an isometry of gF or
    the irregular metric."""
    B = np.zeros((d, d))
    B[0, d - 1], B[d - 1, 0] = 1.0, -1.0
    return B


@pytest.mark.parametrize("d, scale", [(2, 1.0), (4, 1e-3), (6, 3.0), (8, 1.0), (8, 10.0)])
def test_skew_exp_matches_scipy_expm(d, scale):
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(d)
    G = rng.standard_normal((d, d))
    A = scale * (G - G.T)
    E = skew_exp(A)
    assert np.abs(E - expm(A)).max() <= 1e-13 * max(1.0, np.abs(A).max())
    assert np.abs(E.T @ E - np.eye(d)).max() <= 1e-14


def test_skew_exp_of_a_stack_equals_its_per_matrix_calls():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((6, 8, 8))
    A = G - np.swapaxes(G, -1, -2)
    E = skew_exp(A)
    assert E.shape == A.shape
    assert all(np.array_equal(E[i], skew_exp(A[i])) for i in range(len(A)))


@pytest.mark.parametrize("label", ["gF", "irregular"])
def test_flow_of_a_stacked_algebra_basis_equals_its_per_generator_calls(label):
    """One skew_exp and one metric call for the whole basis change no bit of
    any generator's quotient, with the frame given or built."""
    st, n = _structure(label)
    lc = LeviCivita(st.metric)
    basis = st.isometry_algebra().basis
    X = sample_sphere(n, 40, seed=7).coords
    F = g_orthonormal_frame(st.metric.matrix_at(X), X)
    for x, frame in ((X, F), (X[0], None)):
        L = lc.flow_lie_frame(np.stack(basis), x, frame=frame)
        assert L.shape[0] == len(basis)
        assert all(np.array_equal(L[i], lc.flow_lie_frame(B, x, frame=frame))
                   for i, B in enumerate(basis))


@pytest.mark.parametrize("label", ["gF", "irregular"])
def test_killing_flow_vanishes_at_every_time(label):
    """A Killing field's flow preserves g, so the quotient is rounding over t
    at every flow time, not only at FLOW_TIME."""
    st, n = _structure(label)
    lc = LeviCivita(st.metric)
    X = sample_sphere(n, 40, seed=7).coords
    for t in (FLOW_TIME, 1e-2, 0.1, 1.0):
        assert np.abs(lc.flow_lie_frame(st.field.matrix, X, t=t)).max() * t <= 2e-15


@pytest.mark.parametrize("label", ["gF", "irregular"])
def test_flow_agrees_with_finite_differences_on_a_non_killing_rotation(label):
    """Two independent discretisations of L_xi g: the flow quotient (error
    O(t^2)) and F^T (N^T M + M N) F with N from the chart oracle's central
    differences (error O(h^2)).  Each error is estimated by step halving,
    err(s) ~ 4/3 |r(s) - r(s/2)|, and the two must agree within twice the sum
    of the estimates."""
    st, n = _structure(label)
    lc = LeviCivita(st.metric)
    X = sample_sphere(n, 40, seed=7).coords
    rot = linear_field(_rotation(st.metric.dim))
    flow = lc.lie_metric_frame(rot, X)
    assert np.array_equal(flow, lc.flow_lie_frame(rot.matrix, X))
    flow_err = 4 / 3 * np.abs(flow - lc.flow_lie_frame(rot.matrix, X, t=FLOW_TIME / 2)).max()
    M = st.metric.matrix_at(X)
    F = g_orthonormal_frame(M, X)
    N, N_half = (np.array([chart_nabla_endo_per_point(lc, rot, x, h) for x in X])
                 for h in (1e-4, 5e-5))
    fd, fd_half = (np.swapaxes(F, -1, -2) @ (np.swapaxes(D, -1, -2) @ M + M @ D) @ F
                   for D in (N, N_half))
    fd_err = 4 / 3 * np.abs(fd - fd_half).max()
    assert np.abs(flow).max() > 0.3  # far from Killing: the comparison is not vacuous
    assert not np.array_equal(flow, fd)  # two methods, not one read twice
    assert np.abs(flow - fd).max() <= 2 * (flow_err + fd_err)


@pytest.mark.parametrize("label", ["gF", "irregular"])
def test_flow_quotient_converges_at_second_order(label):
    """L(t) - L(t/2) shrinks by 4 when t halves: the quotient is central."""
    st, n = _structure(label)
    lc = LeviCivita(st.metric)
    X = sample_sphere(n, 40, seed=7).coords
    B = _rotation(st.metric.dim)
    L = [lc.flow_lie_frame(B, X, t=FLOW_TIME / 2 ** k) for k in range(3)]
    ratio = np.abs(L[0] - L[1]).max() / np.abs(L[1] - L[2]).max()
    assert 3.9 <= ratio <= 4.1


def test_gf_killing_passes_at_the_rounding_floor_on_every_seed():
    """A Christoffel stencil at step 1e-4 read a truncation of 1.147e-6
    against tol 1e-6 at seed 2; the flow reads rounding on seeds 0-19."""
    ds = build_deformed(n=3, c=0.3)
    lc = LeviCivita(ds.metric)
    for seed in range(20):
        res = check_killing(lc, ds.field, sample_sphere(3, 200, seed).coords).max()
        assert res <= 1e-11, (seed, res)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_killing_keeps_the_closed_form(n):
    """The flow quotient would read ~1e-13 here; the closed form reads ~1e-16."""
    rs = build_round(n)
    X = sample_sphere(n, 200, 42).coords
    assert check_killing(LeviCivita(rs.metric), rs.field, X).max() <= 1e-15


@pytest.mark.parametrize("m", [0, 1, 2])
def test_quaternionic_killing_keeps_the_closed_form(m):
    qs = build_quaternionic(m)
    lc = LeviCivita(qs.metric)
    X = sample_sphere(2 * m + 1, 200, 42).coords
    for f in qs.generators:
        assert check_killing(lc, f, X).max() <= 1e-15
