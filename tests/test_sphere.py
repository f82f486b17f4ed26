"""Charts, points, and deterministic sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killinglab import Chart, ChartDomainError, SpherePoint, sample_sphere
from killinglab.algebra import so_basis
from killinglab.constructions import build_irregular, build_quaternionic, std_complex_structure
from killinglab.sphere import (
    matvec,
    POLE_EXCLUSION,
    chart_for_point,
    default_atlas,
    orthonormal_tangent_frame,
)

from oracles import stereographic_metric_closed_form


def unit_vectors(dim: int):
    """Hypothesis strategy: a point on S^(dim-1), bounded away from poles."""
    return st.lists(
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
        min_size=dim, max_size=dim,
    ).map(np.asarray).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: v / np.linalg.norm(v))


def test_sphere_point_rejects_off_sphere():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 1.0, 0.0, 0.0]))


def test_sphere_point_normalize():
    v = np.array([3.0, 0.0, 4.0, 0.0])
    p = SpherePoint(v / np.linalg.norm(v))
    assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-15
    assert p.dim == 4


def test_sample_determinism():
    a = sample_sphere(2, 25, seed=7).arrays()
    b = sample_sphere(2, 25, seed=7).arrays()
    c = sample_sphere(2, 25, seed=8).arrays()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_samples_are_on_sphere():
    xs = sample_sphere(3, 50, seed=3).arrays()
    assert np.abs(np.linalg.norm(xs, axis=1) - 1.0).max() < 1e-12


def test_default_atlas_requires_even_ambient():
    with pytest.raises(ValueError):
        default_atlas(5)


@settings(max_examples=40, deadline=None)
@given(unit_vectors(4))
def test_chart_roundtrip(v):
    p = SpherePoint(v)
    chart = chart_for_point(p)
    u = chart.coords(p)
    back = chart.point_coords(u)
    assert np.abs(back - p.coords).max() < 1e-12


def test_chart_rejects_points_near_pole():
    chart = default_atlas(4)[0]
    bad = chart.pole
    with pytest.raises(ChartDomainError):
        chart.coords(bad)


def test_atlas_covers_every_sample():
    atlas = default_atlas(8)
    for p in sample_sphere(3, 100, seed=11).points:
        chart = chart_for_point(p, atlas)
        assert np.linalg.norm(p.coords - chart.pole.coords) > POLE_EXCLUSION
        chart.coords(p)


def test_chart_jacobian_matches_fd():
    chart = default_atlas(4)[0]
    u = np.array([0.3, -0.2, 0.5])
    J = chart.jacobian(u)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        col = (chart.point_coords(u + e) - chart.point_coords(u - e)) / (2 * h)
        assert np.abs(J[:, i] - col).max() < 1e-8


def test_chart_metric_closed_form():
    """Pullback of the ambient metric through the chart is conformal."""
    chart = default_atlas(4)[0]
    u = np.array([0.4, 0.1, -0.7])
    J = chart.jacobian(u)
    assert np.abs(J.T @ J - stereographic_metric_closed_form(u)).max() < 1e-12


def test_orthonormal_tangent_frame():
    x = sample_sphere(2, 1, seed=5).arrays()[0]
    F = orthonormal_tangent_frame(x)
    assert F.shape == (6, 5)
    assert np.abs(F.T @ F - np.eye(5)).max() < 1e-12
    assert np.abs(x @ F).max() < 1e-12


@pytest.mark.parametrize("ops", [
    lambda: so_basis(6),
    lambda: std_complex_structure(8)[None],
    lambda: build_quaternionic(1).generators,
    lambda: build_irregular(n=2).field.matrix[None],
], ids=["so6-basis", "j0-8", "quaternion-units", "irregular-generator"])
def test_matvec_of_a_shipped_generator_is_the_stacked_product_bit_for_bit(ops):
    """One operator on a stack of points is one v @ A^T; every generator the
    package ships has one nonzero entry per row, so each entry is a single
    product and the result is bit-identical to the point-by-point one."""
    for A in ops():
        v = sample_sphere(A.shape[0] // 2 - 1, 30, seed=3).coords.reshape(5, 6, -1)
        assert np.array_equal(matvec(A, v), (A @ v[..., None])[..., 0])


def test_matvec_of_a_dense_operator_agrees_with_the_stacked_product():
    """A dense skew operator of norm 1 on points of S^5: the two summation
    orders agree to rounding."""
    B = np.random.default_rng(8).standard_normal((6, 6))
    A = (B - B.T) / np.linalg.norm(B - B.T, 2)
    v = sample_sphere(2, 200, seed=8).coords
    assert np.abs(matvec(A, v) - (A @ v[..., None])[..., 0]).max() < 1e-15
