"""Metric fields and covariant differentiation: exact vs finite differences."""

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
    NumericalQualityError,
    linear_field,
    round_metric,
    sample_sphere,
)
from killinglab.metrics import (
    MAX_FD_STEP,
    MetricField,
    central_diff,
    g_orthonormal_complement,
    g_orthonormal_frame,
    general_field,
    richardson_guard,
)
from killinglab.sphere import rowdot
from killinglab.verify import check_dxi_spectrum

from oracles import metric_pullback_drift


def test_round_metric_is_ambient_identity(round2):
    x = sample_sphere(2, 1, seed=1).arrays()[0]
    assert np.array_equal(round2.metric.matrix_at(x), np.eye(6))
    assert round2.metric.exact_round


def test_christoffel_closed_form_matches_fd(lc_round1):
    """The round metric extends to M~ = Id: its ambient Christoffel symbols
    vanish in closed form and, differenced, to rounding over the step."""
    x = sample_sphere(1, 3, seed=2).coords
    exact = lc_round1.christoffel(x)
    assert exact.shape == (3, 4, 4, 4) and not exact.any()
    general = MetricField(round_metric(4).matrix_func, dim=4)
    fd = LeviCivita(general, fd_step=1e-5).christoffel(x)
    assert np.abs(exact - fd).max() < 1e-8


def test_nabla_exact_vs_fd(round2, lc_round2, pts2):
    for p in pts2[:6]:
        v = np.random.default_rng(3).standard_normal(6)
        v = v - (v @ p.coords) * p.coords
        a = lc_round2.nabla(round2.field, p, v)
        b = lc_round2.nabla(general_field(round2.field.func), p, v)
        assert np.abs(a - b).max() < 1e-9


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
    """A general field always takes the stencil (``metric_and_field``); a
    linear field or a generator stack never does on the round metric; on any
    other the Lie derivative of either takes the exact flow
    (``flow_lie_frame``), the rest take the jet of a linear field
    (``LeviCivita.jet``, no stencil) and refuse a stack by name."""
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
    fields = {"linear": s.field, "general": general_field(s.field.func),
              "stack": s.isometry_algebra().basis[:3]}
    for kind, fld in fields.items():
        for entry, call in ENTRY_POINTS.items():
            taken.clear()
            if kind == "general":
                expected = {"stencil"}
            elif example == "round":
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


@pytest.mark.parametrize("example", ["gF", "irregular"])
def test_the_jet_reads_no_step(example):
    """A step the stencil loses to rounding (the step-halving guard refuses
    1e-13, ``test_richardson_guard_rejects_tiny_step``), or the largest one
    accepted, leaves a linear field's structure and second derivative bit
    for bit as they are."""
    s = build_deformed(n=3, c=0.3) if example == "gF" else build_irregular(n=2)
    X = sample_sphere(s.dim // 2 - 1, 6, seed=5).coords
    built = []
    for h in (1e-4, 1e-13, 1e-300, MAX_FD_STEP):
        lc = LeviCivita(s.metric, fd_step=h)
        st = lc.structure_at(s.field, X)
        built.append((st.nabla_endo, lc.second_nabla_frame(s.field, X, st.frame, st.jet)))
    assert all(np.array_equal(a, b) for other in built[1:] for a, b in zip(built[0], other))


def test_general_field_is_called_once_on_a_stack():
    shapes = []
    fld = general_field(lambda x: shapes.append(x.shape) or np.zeros_like(x))
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
    from killinglab.sphere import orthonormal_tangent_frame
    p = pts1[0]
    F = orthonormal_tangent_frame(p.coords)
    a = lc_round1.second_nabla_frame(round1.field, p, F)
    b = lc_round1.second_nabla_frame(general_field(round1.field.func), p, F)
    assert np.abs(a - b).max() < 1e-5


def test_lie_metric_frame_zero_for_killing(round2, lc_round2, pts2):
    worst = max(np.abs(lc_round2.lie_metric_frame(round2.field, p)).max()
                for p in pts2[:10])
    assert worst < 1e-12
    # independent flow-pullback oracle agrees the metric is preserved
    assert metric_pullback_drift(round2.j0, pts2[:10]) < 1e-8


def test_lie_metric_frame_nonzero_for_non_killing(lc_round2, pts2):
    E = np.zeros((6, 6))
    E[0, 1] = 1.0  # not skew: shear, not an isometry generator
    fld = general_field(lambda x: x @ E.T - rowdot(x, x @ E.T)[..., None] * x)
    worst = max(np.abs(lc_round2.lie_metric_frame(fld, p)).max() for p in pts2[:10])
    assert worst > 0.1
    assert metric_pullback_drift(E, pts2[:10]) > 0.1


def test_dxi_square_eigenvalues_round(round2, lc_round2, pts2):
    st = lc_round2.structure_at(round2.field, pts2[0])
    ref = np.array([-4.0] * 4 + [0.0])
    assert check_dxi_spectrum(st, ref).max() < 1e-10


def test_fd_step_validation():
    with pytest.raises(ValueError):
        LeviCivita(round_metric(4), fd_step=0.0)
    with pytest.raises(NumericalQualityError, match="difference scale"):
        LeviCivita(round_metric(4), fd_step=2 * MAX_FD_STEP)
    with pytest.raises(NumericalQualityError, match="difference scale"):
        LeviCivita(round_metric(4), fd_step=1e30)


def test_richardson_guard_rejects_tiny_step(round1, pts1):
    lc = LeviCivita(round1.metric, fd_step=1e-13)
    half = LeviCivita(round1.metric, fd_step=lc.fd_step / 2)
    general = general_field(round1.field.func)
    hit = False
    for p in pts1[:5]:
        try:
            richardson_guard(lc.nabla_endo(general, p), half.nabla_endo(general, p), lc.fd_step)
        except NumericalQualityError as e:
            assert "step halving" in str(e)
            hit = True
            break
    assert hit, "cancellation-dominated step was not flagged at any probe point"


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


# -- the flat second-difference stencil of central_diff ----------------------------

def test_second_differences_are_exact_on_cubics():
    """Every O(h^2) error term of the pure and seven-point mixed differences
    carries a fourth derivative, so on a cubic D2 is the Hessian up to the
    rounding of f over h^2."""
    rng = np.random.default_rng(5)
    m = 5
    C = rng.standard_normal((m, m, m))
    S = sum(np.transpose(C, p) for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2),
                                          (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6.0
    A, b = rng.standard_normal((m, m)), rng.standard_normal(m)

    def f(V):
        return (np.einsum("...a,...b,...c,abc->...", V, V, V, S)
                + np.einsum("...a,ab,...b->...", V, A, V) + V @ b)

    U = rng.standard_normal((3, m))
    hessian = 6.0 * np.einsum("abc,nc->nab", S, U) + A + A.T
    for h in (0.5, 0.1):
        f0, _, D2 = central_diff(f, U, h, second=True)
        assert np.array_equal(f0, f(U))
        assert np.abs(D2 - hessian).max() <= 1e-13 / h ** 2


def test_second_differences_converge_quadratically():
    """On f(y) = exp(a.y) the error of D2 against a a^T f quarters when h halves."""
    a = np.array([0.7, -1.2, 0.4, 0.9])
    U = 0.5 * np.random.default_rng(6).standard_normal((2, 4))

    def f(V):
        return np.exp(V @ a)

    exact = np.einsum("i,j,n->nij", a, a, f(U))
    errs = [np.abs(central_diff(f, U, h, second=True)[2] - exact).max() for h in (1e-2, 5e-3)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("m", [2, 6, 8])
def test_second_difference_stencil_has_m_squared_plus_m_plus_one_rows(m):
    """U, U +- h e_l and U +- h (e_i + e_j) for i < j: the mixed differences
    reuse the axial points."""
    rows = []

    def f(V):
        rows.append(V.shape[-2])
        return V.sum(axis=-1)

    central_diff(f, np.zeros((3, m)), 1e-3, second=True)
    assert rows == [m * m + m + 1]
