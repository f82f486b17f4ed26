"""Batched finite-difference stencils against closed forms and per-point references."""

from __future__ import annotations

import numpy as np
import pytest

from killinglab import LeviCivita, build_deformed, build_irregular, sample_sphere
from killinglab.algebra import IsometryAlgebra, so_basis
from killinglab.metrics import central_diff, general_field
from killinglab.sphere import SpherePoint, chart_for_point, chart_index, default_atlas
from killinglab.verify import check_killing, nijenhuis_residual

from oracles import built, nijenhuis_stencil_and_bound


# -- central_diff --------------------------------------------------------------

def test_central_diff_exact_on_quadratics():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    b = rng.standard_normal(4)
    U = rng.standard_normal((3, 2, 4))

    def f(V):
        return np.einsum("...i,ij,...j->...", V, A, V) + V @ b

    for h in (1e-1, 1e-3):
        val, D = central_diff(f, U, h, center=True)
        assert D.shape == (3, 2, 4)
        assert np.abs(D - (U @ (A + A.T) + b)).max() < 1e-11
        assert np.array_equal(val, f(U))


def test_central_diff_second_order_on_sin():
    u = np.array([0.3, -1.1, 0.7])

    def f(V):  # vector-valued: (..., k, m) -> (..., k, 2)
        return np.stack([np.sin(V).sum(axis=-1), np.sin(2.0 * V[..., 0])], axis=-1)

    exact = np.stack([np.cos(u), [2.0 * np.cos(2.0 * u[0]), 0.0, 0.0]], axis=-1)
    errs = []
    for h in (1e-2, 5e-3):
        D = central_diff(f, u, h)
        assert D.shape == (3, 2)
        errs.append(np.abs(D - exact).max())
    assert errs[0] <= (1e-2) ** 2 * 8.0 / 6.0  # h^2 max|f'''| / 6
    assert 3.8 < errs[0] / errs[1] < 4.2  # error O(h^2)


# -- batched chart maps -----------------------------------------------------------

def _close(a, b) -> bool:
    """Equal to 1e-15 relative to the size of the values (rounding only)."""
    return np.abs(a - b).max() <= 1e-15 * max(1.0, float(np.abs(b).max()))


def test_batched_chart_maps_equal_per_row_calls():
    rng = np.random.default_rng(1)
    for chart in default_atlas(8):
        U = rng.standard_normal((5, 3, 7))
        V = rng.standard_normal((5, 3, 8))
        X = chart.point_coords(U)
        J = chart.jacobian(U)
        lam = chart.conformal_factor(U)
        W = chart.to_chart_vector(U, V)
        back = chart.coords(X)
        for a in range(5):
            for b in range(3):
                u = U[a, b]
                assert _close(X[a, b], chart.point_coords(u))
                assert _close(J[a, b], chart.jacobian(u))
                assert _close(lam[a, b], chart.conformal_factor(u))
                assert _close(W[a, b], chart.to_chart_vector(u, V[a, b]))
                assert _close(back[a, b], chart.coords(SpherePoint(X[a, b])))


def test_chart_index_matches_chart_for_point():
    atlas = default_atlas(6)
    pts = sample_sphere(2, 50, seed=3).arrays()
    pts[:4, 0] = [-1e-4, 0.0, 1e-4, 0.5]
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    idx = chart_index(pts, atlas)
    assert list(idx[:4]) == [0, 0, 1, 1]
    for x, i in zip(pts, idx):
        assert chart_for_point(SpherePoint(x), atlas) is atlas[i]


# -- one covariant derivative per point -------------------------------------------

def test_fd_nabla_endo_matches_closed_form_on_round(round2, lc_round2, pts2):
    E = round2.field.matrix
    for p in pts2[:8]:
        x = p.coords
        P = np.eye(6) - np.outer(x, x)
        N = lc_round2.nabla_endo(general_field(round2.field.func), p)
        assert np.abs(N - P @ E @ P).max() < 1e-7
        assert np.abs(N @ x).max() < 1e-12


def _near_equator(n: int, count: int, seed: int) -> list[SpherePoint]:
    """Samples with |x0| < 1e-3 at the front, where the +-e1 charts meet."""
    xs = sample_sphere(n, count, seed=seed).arrays()
    xs[:3, 0] = [5e-4, -3e-4, 0.0]
    return [SpherePoint(x / np.linalg.norm(x)) for x in xs]


def test_stacked_nabla_endo_equals_per_point_calls(irregular):
    lc = LeviCivita(irregular.metric)
    pts = _near_equator(irregular.n, 6, seed=5)
    X = np.stack([p.coords for p in pts])
    N = lc.nabla_endo(irregular.field, X)
    for k, p in enumerate(pts):
        assert np.abs(N[k] - lc.nabla_endo(irregular.field, p)).max() < 1e-12


@pytest.mark.parametrize("build, n", [(build_irregular, 2), (build_deformed, 3)])
def test_batched_nijenhuis_matches_per_point_reference(build, n):
    st = build(n)
    lc = LeviCivita(st.metric)
    pts = _near_equator(n, 5, seed=17)
    step = 1.5e-3  # the reference stencil's step, 15 fd_step
    switched = 0
    for p in pts:
        # the reference's chart stencil around a point with |x0| < step crosses
        # into the other chart
        atlas = default_atlas(2 * n + 2)
        chart = chart_for_point(p, atlas)
        u0 = chart.coords(p)
        stencil = u0 + step * np.concatenate([np.eye(2 * n + 1), -np.eye(2 * n + 1)])
        switched += len(set(chart_index(chart.point_coords(stencil), atlas))) > 1
    assert switched >= 2
    X = np.stack([p.coords for p in pts])
    got = np.array([nijenhuis_residual(*built(lc, st.field, p)) for p in pts])
    ref, bound = nijenhuis_stencil_and_bound(lc, st.field, X)
    assert np.all(np.abs(got - ref) <= bound)


# -- satellites -------------------------------------------------------------------

def test_check_on_empty_sample_names_the_check(round1, lc_round1):
    with pytest.raises(ValueError, match="'killing' got no samples"):
        check_killing(lc_round1, round1.field, [])


def test_algebra_coords_recover_integer_combinations():
    """The factored trace-form coordinates hold every integer combination of
    the basis, and refuse a dependent basis and a matrix outside the span."""
    basis6 = so_basis(6)
    alg = IsometryAlgebra(basis6, validate=False)
    ints = np.random.default_rng(3).integers(-9, 10, size=(5, len(basis6)))
    for c in ints:
        assert alg.contains(sum(int(k) * B for k, B in zip(c, basis6)))
    basis = so_basis(4)
    with pytest.raises(ValueError, match="linearly dependent"):
        IsometryAlgebra(np.concatenate([basis, [basis[0] + basis[1]]]), validate=False)
    small = IsometryAlgebra(basis[:2], validate=False)
    assert not small.contains(basis[3])
