"""Metric fields and covariant differentiation against closed forms and chart oracles."""

from __future__ import annotations

import numpy as np
import pytest

from killinglab import (
    LeviCivita,
    build_deformed,
    build_irregular,
    build_round,
    check_killing,
    MetricDegeneracyError,
    linear_field,
    round_metric,
    sample_sphere,
)
from killinglab.metrics import (
    MetricField,
    VectorField,
    g_orthonormal_complement,
    g_orthonormal_frame,
)
from killinglab.verify import check_dxi_spectrum

from oracles import chart_nabla_endo_per_point, metric_pullback_drift, second_nabla_nested_per_point


def test_round_metric_is_ambient_identity(round2):
    x = sample_sphere(2, 1, seed=1).arrays()[0]
    assert np.array_equal(round2.metric.matrix_at(x), np.eye(6))
    assert round2.metric.exact_round


def test_christoffel_on_the_round_metric_is_exactly_zero(lc_round1):
    """The round metric extends to M~ = Id, whose Christoffel symbols vanish."""
    x = sample_sphere(1, 3, seed=2).coords
    for points in (x, x[0]):
        Gamma = lc_round1.christoffel(points)
        assert Gamma.shape == points.shape + (4, 4) and not Gamma.any()


def test_christoffel_refuses_a_metric_with_neither_closed_forms_nor_a_jet():
    lc = LeviCivita(MetricField(round_metric(4).matrix_func, dim=4))
    with pytest.raises(ValueError, match="^christoffel differentiates a field on a metric other "
                                         "than the round one through its rank_jet, which the "
                                         "unnamed metric does not supply$"):
        lc.christoffel(sample_sphere(1, 3, seed=2).coords)


def test_nabla_exact_vs_fd(round2, lc_round2, pts2):
    """The closed form against the chart oracle's central differences."""
    for p in pts2[:6]:
        v = np.random.default_rng(3).standard_normal(6)
        v = v - (v @ p.coords) * p.coords
        a = lc_round2.nabla(round2.field, p, v)
        b = chart_nabla_endo_per_point(lc_round2, round2.field, p.coords, 1e-4) @ v
        assert np.abs(a - b).max() < 1e-7


# every entry point that differentiates a field, called on lc, the field and a sample
ENTRY_POINTS = {
    "nabla_endo": lambda lc, fld, X: lc.nabla_endo(fld, X),
    "second_nabla_frame": lambda lc, fld, X: lc.second_nabla_frame(
        fld, X, lc.frame(X, lc.metric.matrix_at(X))),
    "structure_at": lambda lc, fld, X: lc.structure_at(fld, X),
    "lie_metric_frame": lambda lc, fld, X: lc.lie_metric_frame(fld, X),
    "check 'killing'": lambda lc, fld, X: check_killing(lc, fld, X),
}


@pytest.mark.parametrize("example", ["round", "gF", "irregular"])
def test_every_entry_point_takes_the_path_of_the_metric_and_the_field(example, monkeypatch):
    """A field with no generator is refused by name at every entry point; a
    linear field or a generator stack takes the closed forms on the round
    metric; on any other the Lie derivative of either takes the exact flow
    (``flow_lie_frame``), the rest take the jet of a linear field
    (``LeviCivita.jet``) and refuse a stack by name.  None evaluates
    ``metric_and_field``."""
    s = {"round": lambda: build_round(2), "gF": lambda: build_deformed(n=3, c=0.3),
         "irregular": lambda: build_irregular(n=2)}[example]()
    lc, X = LeviCivita(s.metric), sample_sphere(s.dim // 2 - 1, 5, seed=3).coords
    taken = []
    for name, path in (("metric_and_field", "stencil"), ("flow_lie_frame", "flow"),
                       ("jet", "jet")):
        def recorded(self, *args, _path=path, _method=getattr(LeviCivita, name), **kwargs):
            taken.append(_path)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(LeviCivita, name, recorded)
    fields = {"linear": s.field, "general": VectorField(s.field.func),
              "stack": s.isometry_algebra().basis[:3]}
    for kind, fld in fields.items():
        for entry, call in ENTRY_POINTS.items():
            taken.clear()
            if kind == "general":
                with pytest.raises(ValueError, match=f"^{entry} differentiates a linear field "
                                                     f"x -> A x, and this field has no generator$"):
                    call(lc, fld, X)
                assert taken == [], entry
                continue
            if example == "round":
                expected = set()
            elif entry in ("lie_metric_frame", "check 'killing'"):
                expected = {"flow"}
            elif kind == "linear":
                expected = {"jet"}
            else:
                with pytest.raises(ValueError, match=f"^{entry} takes a stack of generators "
                                                     f"only on the round metric"):
                    call(lc, fld, X)
                assert taken == [], entry
                continue
            call(lc, fld, X)
            assert set(taken) == expected, (kind, entry)


def test_a_field_is_called_once_on_a_stack():
    shapes = []
    fld = VectorField(lambda x: shapes.append(x.shape) or np.zeros_like(x))
    X = sample_sphere(2, 7, seed=1).coords
    assert fld.value(X).shape == X.shape
    assert shapes == [X.shape]


def test_nabla_is_tangent(round2, lc_round2, pts2):
    for p in pts2[:10]:
        v = np.random.default_rng(4).standard_normal(6)
        v = v - (v @ p.coords) * p.coords
        out = lc_round2.nabla(round2.field, p, v)
        assert abs(float(out @ p.coords)) < 1e-10


def test_second_nabla_exact_vs_fd(round1, lc_round1, pts1):
    """The closed form against the nested chart oracle's differences."""
    from killinglab.sphere import orthonormal_tangent_frame
    p = pts1[0]
    F = orthonormal_tangent_frame(p.coords)
    a = lc_round1.second_nabla_frame(round1.field, p, F)
    b = second_nabla_nested_per_point(lc_round1, round1.field, p.coords, F, 1e-4)
    assert np.abs(a - b).max() < 1e-5


def test_lie_metric_frame_zero_for_killing(round2, lc_round2, pts2):
    worst = max(np.abs(lc_round2.lie_metric_frame(round2.field, p)).max()
                for p in pts2[:10])
    assert worst < 1e-12
    # independent flow-pullback oracle agrees the metric is preserved
    assert metric_pullback_drift(round2.j0, pts2[:10]) < 1e-8


def test_lie_metric_frame_nonzero_for_non_killing(lc_round2, pts2):
    """A generator read as given (``as_field``) that is not skew: the closed
    form reads F^T (E + E^T) F, the Lie derivative of the flat metric along
    x -> E x on tangent vectors, which the flow oracle measures too."""
    E = np.zeros((6, 6))
    E[0, 1] = 1.0  # not skew: shear, not an isometry generator
    worst = max(np.abs(lc_round2.lie_metric_frame(E, p)).max() for p in pts2[:10])
    assert worst > 0.1
    assert metric_pullback_drift(E, pts2[:10]) > 0.1


def test_dxi_square_eigenvalues_round(round2, lc_round2, pts2):
    st = lc_round2.structure_at(round2.field, pts2[0])
    ref = np.array([-4.0] * 4 + [0.0])
    assert check_dxi_spectrum(st, ref).max() < 1e-10


def test_metric_degeneracy_detected():
    def bad(x):
        M = np.eye(4)
        M[2, 2] = -0.5  # signature flip: not a metric
        return M

    metric = MetricField(bad, dim=4)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(MetricDegeneracyError):
        g_orthonormal_frame(metric.matrix_at(x), x)


def test_g_orthonormal_frame_properties():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    A = rng.standard_normal((6, 6)) * 0.1
    M = np.eye(6) + A @ A.T  # positive definite, non-trivial
    F = g_orthonormal_frame(M, x)
    assert F.shape == (6, 5)
    assert np.abs(F.T @ M @ F - np.eye(5)).max() < 1e-10
    assert np.abs(x @ F).max() < 1e-10  # columns span the tangent space


def test_g_orthonormal_complement_of_the_whole_tangent_space_is_empty():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    exclude = list(np.eye(4)[:, 1:].T)  # the whole tangent space at x
    C = g_orthonormal_complement(g_orthonormal_frame(np.eye(4), x), np.eye(4), x, exclude)
    assert C.shape == (3, 0)


def test_linear_field_requires_skew():
    with pytest.raises(ValueError):
        linear_field(np.diag([1.0, 2.0, 3.0, 4.0]))
