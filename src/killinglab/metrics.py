"""Metric fields on odd spheres and their Levi-Civita machinery.

A metric is stored as an ambient Gram operator: a symmetric matrix field
M(x) on R^d with g_x(u, v) = u^T M(x) v for tangent vectors u, v at x.
The round metric is M = Id; deformed metrics supply their own M.

Differentiation strategy, chosen from the metric and the field alone:
  * round metric + linear field  ->  closed forms, no stepping;
  * the Lie derivative of g along a linear field x -> A x on any other
    metric  ->  the field's exact flow e^(tA) (``skew_exp``): the symmetric
    difference quotient of the pulled-back metric at flow time FLOW_TIME
    (``flow_lie_frame``), exact for a Killing field and independent of the
    finite-difference step;
  * anything else  ->  finite differences in ambient coordinates, by the
    Gauss formula: the Levi-Civita connection of S in (R^d, M~) is the
    tangential part of the ambient one (do Carmo, *Riemannian Geometry*,
    ch. 6).  The metric is extended off the sphere as M~(y) = P M(y^) P +
    y^ y^T, y^ = y / |y|, P = Id - y^ y^T; on the sphere M~ agrees with M on
    tangent vectors and makes x the unit normal, so the tangential part is
    the Euclidean projection P.  ``metric_and_field`` gives [M~ | X] at a
    stack of points, and one ``central_diff`` call over the d ambient axes
    gives the ambient Christoffel symbols and H~ = dX^T + Gamma~ X, with
    nabla X = P H~ P.  The second covariant derivative takes one call over
    the flat second-difference stencil (d^2 + d + 1 points) and forms Gamma~,
    d Gamma~, H~ and dH~ from it in closed algebra.

Tangent frames are Gram-Schmidt in Cholesky form; frames, the derived
structure and the second covariant derivative take one point or a stack, so a
battery builds them once per chunk of its sample and shares them between its
checks.  ``sample_chunks`` sizes every chunk, of a battery's sample and of the
flat second-difference stencil of ``second_nabla_frame``, by one budget.

Finite differences on the round metric are asked for through the inputs: a
copy of a linear field with ``kind="general"`` takes the ambient stencil.  A
finite-difference result at fd_step can be checked against its value at
fd_step / 2 by the Richardson step-halving guard ``richardson_guard``:
disagreement beyond ``RICHARDSON_REL_TOL``, or a drift that is not finite,
raises ``NumericalQualityError`` instead of returning a silently bad number.
The batteries run it at one point through ``verify.covariant_canary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sphere import matvec, orthonormal_tangent_frame, rowdot, tangent_seeds, unit_sample

DEFAULT_FD_STEP = 1e-4
# Stencil points x +- h e_l sit at distance ~h from x on a unit sphere, whose
# curvature scale is 1.  A step beyond a few hundredths samples the metric far
# outside the neighbourhood of the base point, where step halving cannot tell
# a wrong value from a converged one (both halvings collapse to it).
MAX_FD_STEP = 0.02
RICHARDSON_REL_TOL = 1e-3
# Flat second-difference step of ``second_nabla_frame`` over fd_step: its rounding
# floor eps / h^2 is that of a step-fd_step/3 difference nested in a step-10 fd_step one.
SECOND_DERIV_STEP_SCALE = (10.0 / 3.0) ** 0.5
FRAME_RANK_TOL = 1e-8
# A Cholesky pivot of a Gram matrix carries an absolute error near sqrt(eps),
# about FRAME_RANK_TOL itself, so it cannot tell a dependent seed from a kept
# one there; an ``exclude=`` frame with a smaller pivot takes the loop.
FRAME_FALLBACK_PIVOT = FRAME_RANK_TOL ** 0.5
# The arrays one chunk of sample points may hold: at 200 samples every default battery's
# own arrays are one chunk, and the flat stencil runs 14 points a chunk at d = 8 and 43
# at d = 6 (16 was fastest on both; 200 in one chunk took 1.7 times as long at d = 8)
CHUNK_BYTES = 9 << 19  # 4.5 MiB
# Flow time t of ``flow_lie_frame``.  A Killing field reads rounding over t
# (~4e-13 on gF and irregular), any other field L_xi g + O(t^2) (~1e-5
# relative on gF); a smaller t raises the first, a larger one the second.
FLOW_TIME = 1e-3


class NumericalQualityError(RuntimeError):
    """A finite-difference step cannot be trusted (too large, rounded away, or
    failing its step-halving check), or a drawn sample leaves a check nothing
    to measure."""


class MetricDegeneracyError(ValueError):
    """A metric stopped being positive definite on the tangent space."""


def central_diff(f: Callable[[np.ndarray], np.ndarray], U: np.ndarray, h: float,
                 center: bool = False, second: bool = False):
    """Central differences of f along every coordinate axis at U (..., m).

    The stencil U +- h e_l is built as one (..., 2m, m) stack, with U itself
    appended as row 2m when ``center`` or ``second`` is set, and f is called
    once on it; f maps (..., k, m) to (..., k, *shape).  Returns D (..., m,
    *shape) with D[..., l, :] = (f(U + h e_l) - f(U - h e_l)) / 2h, or (f(U), D)
    with ``center``.  ``second`` appends U +- h (e_i + e_j) (i < j), the flat
    stencil of m^2 + m + 1 points, and returns (f(U), D, D2) with D2 (..., m,
    m, *shape) the O(h^2) second differences: the pure ones (Fornberg, Math.
    Comp. 51 (1988)) (f(U + h e_i) - 2 f(U) + f(U - h e_i)) / h^2 and the
    seven-point mixed ones (Abramowitz & Stegun, *Handbook of Mathematical
    Functions*, sec. 25.3), which reuse the points U +- h e_i:

      (f(U + h(e_i + e_j)) + f(U - h(e_i + e_j)) - f(U +- h e_i) - f(U +- h e_j)
       + 2 f(U)) / 2h^2, each sign summed.

    Both are exact on cubics.
    """
    U = np.asarray(U, dtype=float)
    m = U.shape[-1]
    E = h * np.eye(m)
    shift = [E, -E, np.zeros((1, m))] if center or second else [E, -E]
    if second:
        i, j = np.triu_indices(m, 1)
        shift += [E[i] + E[j], -E[i] - E[j]]
    axis = U.ndim - 1
    vals = np.moveaxis(f(U[..., None, :] + np.concatenate(shift)), axis, 0)
    diff = np.moveaxis((vals[:m] - vals[m:2 * m]) / (2 * h), 0, axis)
    if not second:
        return (vals[2 * m], diff) if center else diff
    f0, (pp, mm) = vals[2 * m], np.split(vals[2 * m + 1:], 2)
    axial = vals[:m] + vals[m:2 * m]  # f(U + h e_l) + f(U - h e_l)
    D2 = np.empty((m, m) + f0.shape)
    D2[np.arange(m), np.arange(m)] = (vals[:m] - 2.0 * f0 + vals[m:2 * m]) / h ** 2
    D2[i, j] = D2[j, i] = (pp + mm - axial[i] - axial[j] + 2.0 * f0) / (2.0 * h ** 2)
    return f0, diff, np.moveaxis(D2, (0, 1), (axis, axis + 1))


def sample_bytes(d: int, stencil: bool) -> int:
    """Bytes one sample point holds in ambient dimension d: 60 a value of
    [M~ | X] over its flat stencil (``second_nabla_frame``), of which ~40 are
    alive at once and the rest come and go, or the Nijenhuis contraction's
    ~8 (d - 1)^3 doubles."""
    return 60 * (d * d + d + 1) * d * (d + 1) if stencil else 64 * (d - 1) ** 3


def sample_chunks(n: int, point_bytes: int) -> list[slice]:
    """Row slices covering n points, as many a slice as CHUNK_BYTES holds at
    point_bytes a point, and at least one."""
    rows = max(1, CHUNK_BYTES // point_bytes)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def richardson_guard(A: np.ndarray, A_half: np.ndarray, h: float) -> np.ndarray:
    """A_half, once the matrices A (..., r, c) at step h and A_half at h / 2
    agree to RICHARDSON_REL_TOL in Frobenius norm at every point; a drift that
    is not finite (an overflowed or NaN difference) fails too."""
    rel = (np.linalg.norm(A - A_half, axis=(-2, -1))
           / np.maximum(1.0, np.linalg.norm(A_half, axis=(-2, -1))))
    if not np.all(rel <= RICHARDSON_REL_TOL):
        raise NumericalQualityError(
            f"covariant derivative unstable under step halving: rel drift "
            f"{float(np.max(rel)):.3e} at fd_step={h:.3e}")
    return A_half


def skew_exp(A: np.ndarray) -> np.ndarray:
    """e^A of a real skew-symmetric A (d, d), or of each matrix of a stack
    (..., d, d) by one batched ``eigh``: iA is Hermitian, iA = V W V^H, so
    e^A = V e^(-iW) V^H, real up to rounding."""
    w, V = np.linalg.eigh(1j * np.asarray(A, dtype=float))
    return ((V * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)).real


# ---------------------------------------------------------------------------
# fields and metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VectorField:
    """Tangent vector field given by an ambient-coordinates callable.

    ``kind`` is "linear" (value A x with A skew, hence tangent; ``matrix``
    keeps A) or "general".  ``value`` takes one point (d,) or a stack
    (..., d) and calls ``func`` once on it, so ``func`` of either kind maps
    (..., d) to (..., d).
    """

    kind: str
    func: Callable[[np.ndarray], np.ndarray]
    matrix: np.ndarray | None = None
    name: str = ""

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.func(np.asarray(x, dtype=float))


def linear_field(A, name: str = "") -> VectorField:
    """Field x -> A x; A must be skew so the values are tangent everywhere."""
    A = np.array(A, dtype=float)
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A + A.T).max() > 1e-12 * scale:
        raise ValueError("linear_field requires a skew-symmetric generator")
    A.setflags(write=False)
    return VectorField("linear", lambda x: A @ x if x.ndim == 1 else matvec(A, x),
                       matrix=A, name=name)


def general_field(func: Callable[[np.ndarray], np.ndarray], name: str = "") -> VectorField:
    return VectorField("general", func, matrix=None, name=name)


@dataclass(frozen=True, eq=False)
class MetricField:
    """Riemannian metric as an ambient Gram-operator field; ``matrix_func``
    maps one point (d,) to (d, d) and a stack (..., d) to (..., d, d)."""

    kind: str
    matrix_func: Callable[[np.ndarray], np.ndarray]
    dim: int
    exact_round: bool = False
    name: str = ""

    def matrix_at(self, x: np.ndarray) -> np.ndarray:
        return self.matrix_func(np.asarray(x, dtype=float))


def round_metric(dim: int) -> MetricField:
    """Induced metric of the unit embedding; Gram operator is the identity."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return MetricField(
        "round", lambda x: eye if x.ndim == 1 else np.broadcast_to(eye, x.shape[:-1] + eye.shape),
        dim=dim, exact_round=True, name="round")


def g_orthonormal_frame(metric_matrix: np.ndarray, x: np.ndarray,
                        exclude: Sequence[np.ndarray] = ()) -> np.ndarray:
    """g-orthonormal basis of the tangent space, columns of a (d, k) array.

    Gram-Schmidt of seed columns S in Cholesky form, S^T M S = L L^T and
    F = S L^-T; points (N, d) with metrics (N, d, d) give (N, d, k).  With no
    exclusions S is ``tangent_seeds``, k = d - 1, and a pivot below
    FRAME_RANK_TOL raises MetricDegeneracyError.  Vectors in ``exclude``
    (each (d,), or (N, d) for a stack) come first in S, followed by the first
    d - 1 - len(exclude) columns of ``orthonormal_tangent_frame``, and their
    columns are dropped, so the frame spans the g-orthogonal complement of
    their span inside T_x.  A point whose pivot falls below
    FRAME_FALLBACK_PIVOT, or whose excluded vectors leave T_x, runs the
    Gram-Schmidt loop ``_exclude_frame_loop``, which drops dependent seeds
    and refuses exclusions that are dependent or not tangent.
    """
    M = metric_matrix
    x = np.asarray(x, dtype=float)
    if not len(exclude):
        T = tangent_seeds(x)
        Tt = np.swapaxes(T, -1, -2)
        G = Tt @ M @ T
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise _degeneracy(G, x) from None
        if np.diagonal(L, axis1=-2, axis2=-1).min() < FRAME_RANK_TOL:
            raise _degeneracy(G, x)
        return np.swapaxes(np.linalg.solve(L, Tt), -1, -2)
    d, e = x.shape[-1], len(exclude)
    V = np.stack([np.broadcast_to(v, x.shape) for v in exclude], axis=-1)  # (..., d, e)
    k = max(d - 1 - e, 0)
    S = np.concatenate([V, orthonormal_tangent_frame(x)[..., :k]], axis=-1)
    S, V, xs = S.reshape(-1, d, S.shape[-1]), V.reshape(-1, d, e), x.reshape(-1, d)
    Ms = np.broadcast_to(M, x.shape + (d,)).reshape(-1, d, d)
    St = np.swapaxes(S, -1, -2)
    G = St @ Ms @ S
    try:
        L = np.linalg.cholesky(G)
        ok = np.diagonal(L, axis1=-2, axis2=-1).min(axis=-1) >= FRAME_FALLBACK_PIVOT
    except np.linalg.LinAlgError:
        ok = (_pivots(G) >= FRAME_FALLBACK_PIVOT ** 2).all(axis=-1)
        L = np.zeros_like(G)
        L[ok] = np.linalg.cholesky(G[ok])
    ok &= np.abs(np.einsum("nde,nd->ne", V, xs)).max(axis=-1) <= FRAME_RANK_TOL  # V in T_x
    Qt = np.linalg.solve(L[ok], St[ok])
    # a second pass (CholeskyQR2) takes the g-orthogonality lost to cond(S)^2 back to rounding
    Q = np.swapaxes(Qt, -1, -2)
    Qt = np.linalg.solve(np.linalg.cholesky(Qt @ Ms[ok] @ Q), Qt)
    F = np.empty((len(xs), d, k))
    F[ok] = np.swapaxes(Qt, -1, -2)[..., e:]
    for i in np.flatnonzero(~ok):  # near-dependent or non-tangent seeds only
        F[i] = _exclude_frame_loop(Ms[i], xs[i], V[i].T)
    return F.reshape(x.shape + (k,))


def _exclude_frame_loop(M: np.ndarray, x: np.ndarray, exclude: np.ndarray) -> np.ndarray:
    """``exclude=`` frame at one point by modified Gram-Schmidt of the rows of
    ``exclude`` followed by all columns of ``orthonormal_tangent_frame``; a
    seed whose g-norm after projection falls below FRAME_RANK_TOL is dropped."""
    kept: list[np.ndarray] = []
    for idx, v in enumerate([*exclude, *orthonormal_tangent_frame(x).T]):
        w = v.copy()
        for c in kept:
            w = w - (c @ M @ w) * c
        nrm = float(np.sqrt(max(w @ M @ w, 0.0)))
        if nrm >= FRAME_RANK_TOL:
            kept.append(w / nrm)
        elif idx < len(exclude):
            raise ValueError("excluded vectors are g-degenerate or dependent")
    if len(kept) != x.shape[0] - 1:
        raise MetricDegeneracyError("tangent frame construction lost rank")
    return np.array(kept[len(exclude):]).T.reshape(x.shape[0], -1)


def _pivots(G: np.ndarray) -> np.ndarray:
    """Squared Cholesky pivots (N, k) of a stack G (N, k, k), by Schur
    complements; a non-positive pivot gives non-finite or negative entries
    from there on instead of an exception."""
    piv = np.empty(G.shape[:-1])
    with np.errstate(all="ignore"):
        for k in range(G.shape[-1]):  # piv[:, k] = L[:, k, k]^2
            piv[:, k] = G[:, k, k]
            G = G - G[:, :, k, None] * G[:, None, k, :] / piv[:, k, None, None]
    return piv


def _degeneracy(G: np.ndarray, x: np.ndarray) -> MetricDegeneracyError:
    """Name the first point of x (..., d) and the first Cholesky pivot of its
    tangent Gram matrix G (..., k, k) that falls below FRAME_RANK_TOL^2."""
    G, x = G.reshape((-1,) + G.shape[-2:]), x.reshape(-1, x.shape[-1])
    piv = _pivots(G)
    bad = ~(piv >= FRAME_RANK_TOL ** 2)
    i, k = np.argwhere(bad)[0] if bad.any() else np.unravel_index(np.argmin(piv), piv.shape)
    return MetricDegeneracyError(
        f"metric is not positive definite on the tangent space at x = "
        f"{np.round(x[i], 6).tolist()}: Cholesky pivot {k} of its Gram matrix is {piv[i, k]:.3e}")


def _lower(dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the first kind [..., k, i, j] from the metric
    derivatives dg[..., l, i, j] = d g_ij / d y_l."""
    # Gamma_{kij} (lower) = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
    return 0.5 * (np.einsum("...ijk->...kij", dg) + np.einsum("...jik->...kij", dg) - dg)


def _christoffel(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[..., k, i, j] from the metric g (..., m, m)
    and its derivatives dg[..., l, i, j] = d g_ij / d y_l."""
    m = g.shape[-1]
    lower = _lower(dg)
    # inv then matmul: a batched solve with m^2 right-hand sides takes ~4x as long
    return (np.linalg.inv(g) @ lower.reshape(lower.shape[:-3] + (m, m * m))).reshape(lower.shape)


# ---------------------------------------------------------------------------
# structure bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructureTensors:
    """Pointwise package used by the verification batteries.

    ``nabla_endo`` is the ambient matrix N with N v = (covariant derivative
    of the field along v) for tangent v; ``dxi`` is the ambient matrix D of
    the exterior derivative of the field's metric-dual one-form, with
    d(eta)(u, v) = u^T D v; ``phi_frame``/``phi_ambient`` represent the
    skew endomorphism defined by g(phi u, v) = d(eta)(u, v) / 2.  ``x`` is
    the point (d,) or the sample (N, d) it was built at; built at a sample,
    every field carries a leading axis of N.
    """

    x: np.ndarray
    xi: np.ndarray
    metric_matrix: np.ndarray
    frame: np.ndarray
    nabla_endo: np.ndarray
    dxi: np.ndarray
    phi_frame: np.ndarray
    phi_ambient: np.ndarray

    def rows(self, sl: slice) -> StructureTensors:
        """The same structure at the rows ``sl`` of a sample."""
        return StructureTensors(**{k: v[sl] for k, v in vars(self).items()})


# ---------------------------------------------------------------------------
# Levi-Civita machinery
# ---------------------------------------------------------------------------

class LeviCivita:
    """Covariant differentiation for a metric field on an odd sphere."""

    def __init__(self, metric: MetricField, fd_step: float = DEFAULT_FD_STEP):
        if not fd_step > 0:  # also refuses NaN, for which every comparison is false
            raise ValueError(f"fd_step must be a positive number, got {fd_step!r}")
        if fd_step > MAX_FD_STEP:
            raise NumericalQualityError(
                f"fd_step={fd_step:g} exceeds the usable difference scale "
                f"(max {MAX_FD_STEP:g} on the unit sphere)")
        self.metric = metric
        self.fd_step = float(fd_step)

    def closed_form(self, fld: VectorField) -> bool:
        """Exact-vs-FD dispatch: the closed forms need the round metric and a
        linear field, and read no fd_step; every other pair takes finite
        differences."""
        return self.metric.exact_round and fld.kind == "linear"

    # -- the extended metric ---------------------------------------------------
    # Each takes one ambient point y (d,) or a stack (..., d) near the sphere.

    def extended_metric(self, y: np.ndarray) -> np.ndarray:
        """M~(y) = P M(y^) P + y^ y^T with y^ = y / |y| and P = Id - y^ y^T,
        positive wherever M is positive on the tangent space."""
        y = np.asarray(y, dtype=float)
        yh = y / np.sqrt(rowdot(y, y))[..., None]
        M = self.metric.matrix_at(yh)
        My = matvec(M, yh)
        # P M P + y^ y^T = M - (y^ b^T + b y^T), b = (M - Id) y^ - (y^.M y^ - 1) y^ / 2,
        # written about Id so that |y^| - 1 from rounding is kept, not rounded away
        b = (My - yh) - (0.5 * (rowdot(yh, My) - 1.0))[..., None] * yh
        return M - np.stack([yh, b], axis=-1) @ np.stack([b, yh], axis=-2)

    def metric_and_field(self, fld: VectorField, y: np.ndarray) -> np.ndarray:
        """[M~ | X] (..., d, d + 1): ``extended_metric`` and, as the last
        column, the field's value at y."""
        return np.concatenate([self.extended_metric(y), fld.value(y)[..., None]], axis=-1)

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Ambient Christoffel symbols Gamma~[..., k, i, j] of M~ at x.

        Round metric: M~ = Id, so zero.  Otherwise: central differences of
        M~ at fd_step.
        """
        x = np.asarray(x, dtype=float)
        if self.metric.exact_round:
            return np.zeros(x.shape + x.shape[-1:] * 2)
        g, dg = central_diff(self.extended_metric, x, self.fd_step, center=True)
        return _christoffel(g, dg)

    # -- first covariant derivative ------------------------------------------

    def _endo(self, fld: VectorField, x: np.ndarray, h: float) -> np.ndarray:
        """Ambient H~[..., k, j] = d_j X^k + Gamma~^k_{jl} X^l at x (..., d)
        from central differences of [M~ | X] at step h."""
        vals, dvals = central_diff(lambda y: self.metric_and_field(fld, y), x, h, center=True)
        Gamma = _christoffel(vals[..., :-1], dvals[..., :-1])
        X = np.ascontiguousarray(vals[..., -1])  # einsum sums a strided operand in another order
        return np.swapaxes(dvals[..., -1], -1, -2) + np.einsum("...kjl,...l->...kj", Gamma, X)

    def nabla(self, fld: VectorField, x: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """Ambient components of the covariant derivative of ``fld`` along
        ``direction`` (an ambient tangent vector) at x: ``nabla_endo`` applied
        to it."""
        return matvec(self.nabla_endo(fld, x), np.asarray(direction, dtype=float))

    def nabla_endo(self, fld: VectorField, x: np.ndarray) -> np.ndarray:
        """Ambient matrix N with N v = nabla_v(field) for tangent v, N x = 0.

        ``x`` is one ambient point (d,) or a stack (..., d), which gives
        (..., d, d).  The closed form serves the round metric with a linear
        field, N = P A P; every other pair takes N = P H~ P with H~ from
        central differences of [M~ | X] at fd_step.
        """
        x = np.asarray(x, dtype=float)
        P = np.eye(x.shape[-1]) - x[..., :, None] * x[..., None, :]
        if self.closed_form(fld):
            return P @ fld.matrix @ P
        return P @ self._endo(fld, x, self.fd_step) @ P

    # -- second covariant derivative ------------------------------------------

    def second_nabla_frame(self, fld: VectorField, x: np.ndarray,
                           frame: np.ndarray) -> np.ndarray:
        """Tensor T[:, i, j] = (nabla^2 field)(frame_i, frame_j), ambient values.

        T(u, v) = nabla_u (nabla field)(v); the closed form on the round
        sphere with field E x is T(f_i, f_j) = -(x.E f_j) P f_i - (f_i.f_j) P E x,
        P the tangent projector.  The FD path differences [M~ | X] once over
        the flat stencil of d^2 + d + 1 points (``central_diff`` with
        ``second``) of step fd_step * SECOND_DERIV_STEP_SCALE along the d
        ambient axes, forms Gamma~, d Gamma~, H~ and dH~ from it, and takes
        the tangential part (Gauss): with w(u) = u + Gamma~(u, x), the
        ambient derivative of the position,

          T(u, v) = P[(D~_u H~) v] - (w(u)^T M~ v) P H~ x - (x^T H~ v) P w(u).

        The points run in ``sample_chunks`` of the stencil's ``sample_bytes``.
        Points (N, d) with frames (N, d, k) give (N, d, k, k).
        """
        x = np.asarray(x, dtype=float)
        if self.closed_form(fld):
            Ef = fld.matrix @ frame
            Pf = frame - x[..., :, None] * (x[..., None, :] @ frame)
            Ex = matvec(fld.matrix, x)
            PEx = Ex - rowdot(Ex, x)[..., None] * x
            xEf = (x[..., None, :] @ Ef)[..., 0, :]
            ff = np.swapaxes(frame, -1, -2) @ frame
            T = np.einsum("...j,...di->...dij", -xEf, Pf)
            T -= np.einsum("...ij,...d->...dij", ff, PEx)
            return T
        xs, fs = x.reshape(-1, x.shape[-1]), frame.reshape((-1,) + frame.shape[-2:])
        T = np.empty(fs.shape + fs.shape[-1:])
        d, h = xs.shape[-1], self.fd_step * SECOND_DERIV_STEP_SCALE
        for rows in sample_chunks(len(xs), sample_bytes(d, stencil=True)):
            x0, F = xs[rows], fs[rows]
            f0, d1, d2 = central_diff(lambda y: self.metric_and_field(fld, y), x0, h, second=True)
            g, dg, X, dX, ddX = f0[..., :-1], d1[..., :-1], f0[..., -1], d1[..., -1], d2[..., -1]
            n = len(x0)
            Gamma = _christoffel(g, dg)
            Gl = Gamma.reshape(n, d * d, d)  # [n, (k, j), l]: contractions over l are matmuls
            # g d_p Gamma = d_p lower - (d_p g) Gamma, with dGamma[n, p, k, i, j] = d_p Gamma^k_ij
            R = _lower(d2[..., :-1])
            R -= (dg @ Gamma.reshape(-1, 1, d, d * d)).reshape(R.shape)
            dGamma = (np.linalg.inv(g)[:, None] @ R.reshape(R.shape[:3] + (-1,))).reshape(R.shape)
            # H^k_j = d_j X^k + Gamma^k_{jl} X^l and dH[n, i, k, j] = d_i H^k_j
            H = np.swapaxes(dX, -1, -2) + (Gl @ X[..., None]).reshape(n, d, d)
            dH = (np.swapaxes(ddX, -1, -2)
                  + (dGamma.reshape(n, -1, d) @ X[..., None]).reshape(dGamma.shape[:-1])
                  + (dX @ np.swapaxes(Gl, -1, -2)).reshape(n, d, d, d))
            # DH[n, k, i, j] = d_i H^k_j + Gamma^k_{i l} H^l_j - Gamma^l_{i j} H^k_l
            DH = (np.swapaxes(dH, 1, 2) + (Gl @ H).reshape(n, d, d, d)
                  - (H @ Gamma.reshape(n, d, d * d)).reshape(n, d, d, d))
            Ft = np.swapaxes(F, -1, -2)
            Tf = Ft[:, None] @ DH @ F[:, None]                            # (n, d, k, k)
            W = F + (Gl @ x0[..., None]).reshape(n, d, d) @ F             # w(f_i)
            c1 = np.swapaxes(W, -1, -2) @ g @ F                           # w(f_i)^T M~ f_j
            c2 = (x0[:, None, :] @ H @ F)[:, 0]                           # x^T H~ f_j
            Tf -= c1[:, None] * matvec(H, x0)[:, :, None, None] + c2[:, None, None, :] * W[..., None]
            xTf = (x0[:, None, :] @ Tf.reshape(n, d, -1)).reshape(Tf.shape[:1] + Tf.shape[2:])
            T[rows] = Tf - x0[:, :, None, None] * xTf[:, None]
        return T.reshape(frame.shape + frame.shape[-1:])

    # -- derived structure ----------------------------------------------------
    # Each takes one point (d,) or a stack (N, d), giving results stacked along N.

    def lie_metric_frame(self, fld, x: np.ndarray,
                         frame: np.ndarray | None = None) -> np.ndarray:
        """Lie derivative of g along the field, as a matrix in a g-orthonormal
        frame; identically zero iff the field is Killing at this point.

        ``fld`` is a field or a stack (G, d, d) of linear generators, put in
        front.  ``frame``, ``g_orthonormal_frame(M, x)``, is built here when
        not given.  A linear field on a metric other than the round one takes
        the exact-flow quotient ``flow_lie_frame``; every other pair takes
        N^T M + M N, N = P A P on the round metric, else from ``nabla_endo``."""
        x = np.asarray(x, dtype=float)
        A = fld.matrix if isinstance(fld, VectorField) else np.asarray(fld, dtype=float)
        if A is not None and not self.metric.exact_round:
            return self.flow_lie_frame(A, x, frame=frame)
        M = self.metric.matrix_at(x)
        F = g_orthonormal_frame(M, x) if frame is None else frame
        if A is None:
            N = self.nabla_endo(fld, x)
        else:  # the closed form, each generator against every point
            P = np.eye(x.shape[-1]) - x[..., :, None] * x[..., None, :]
            N = P @ A.reshape(A.shape[:-2] + (1,) * (x.ndim - 1) + A.shape[-2:]) @ P
        return np.swapaxes(F, -1, -2) @ (np.swapaxes(N, -1, -2) @ M + M @ N) @ F

    def flow_lie_frame(self, A: np.ndarray, x: np.ndarray, t: float = FLOW_TIME,
                       frame: np.ndarray | None = None) -> np.ndarray:
        """Lie derivative of g along x -> A x from its exact flow E_s = e^(sA).

        With F the g-orthonormal frame at x (d,), or at each row of (N, d)
        (``frame``, built here when not given), and
        P(s) = F^T E_s^T M(E_s x) E_s F, returns (P(t) - P(-t)) / 2t.  E_s
        is an isometry when the field is Killing, so P(s) = F^T M(x) F for
        every s and the quotient vanishes up to rounding over t; for any other
        field it is L_xi g + O(t^2).  No Christoffel symbol or field
        derivative enters.  E_-t = E_t^T since E_t is orthogonal, and one
        metric call covers E_t x and E_-t x.  A stack of generators A (G, d,
        d) takes one ``skew_exp`` and one metric call for all of them and
        gives a leading axis of G, each slice bit-identical to its own call.
        """
        x = np.asarray(x, dtype=float)
        if frame is None:
            frame = g_orthonormal_frame(self.metric.matrix_at(x), x)
        E = skew_exp(t * A)
        Es = np.stack([E, np.swapaxes(E, -1, -2)])
        Es = Es.reshape(Es.shape[:-2] + (1,) * (x.ndim - 1) + Es.shape[-2:])
        EF = Es @ frame
        P = np.swapaxes(EF, -1, -2) @ self.metric.matrix_at((Es @ x[..., None])[..., 0]) @ EF
        return (P[0] - P[1]) / (2.0 * t)

    def structure_at(self, fld: VectorField, x: np.ndarray,
                     frame: np.ndarray | None = None) -> StructureTensors:
        """Bundle: field value, metric, frame, first covariant derivative,
        two-form of the dual one-form, and the half-two-form endomorphism in
        frame and ambient forms.  ``frame``, ``g_orthonormal_frame(M, x)``,
        is built here when not given; it comes first, so a degenerate
        metric raises MetricDegeneracyError before any differencing.  ``x``,
        one point (d,) or a sample (N, d), is refused unless non-empty and on
        the unit sphere."""
        x = unit_sample("structure_at", x, (1, 2))
        M = self.metric.matrix_at(x)
        F = g_orthonormal_frame(M, x) if frame is None else frame
        Ft = np.swapaxes(F, -1, -2)
        xi = fld.value(x)
        N = self.nabla_endo(fld, x)
        D = np.swapaxes(N, -1, -2) @ M - M @ N
        phi_frame = 0.5 * np.swapaxes(Ft @ D @ F, -1, -2)
        phi_ambient = F @ phi_frame @ Ft @ M
        return StructureTensors(x=x, xi=xi, metric_matrix=M, frame=F,
                                nabla_endo=N, dxi=D, phi_frame=phi_frame,
                                phi_ambient=phi_ambient)
