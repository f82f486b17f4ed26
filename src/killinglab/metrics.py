"""Metric fields on odd spheres and their Levi-Civita machinery.

A metric is stored as an ambient Gram operator: a symmetric matrix field
M(x) on R^d with g_x(u, v) = u^T M(x) v for tangent vectors u, v at x.
The round metric is M = Id; deformed metrics supply their own M.

Covariant derivatives are taken in ambient coordinates, by the Gauss
formula: the Levi-Civita connection of S in (R^d, M~) is the tangential part
of the ambient one (do Carmo, *Riemannian Geometry*, ch. 6).  The metric is
extended off the sphere as M~(y) = P M(y^) P + y^ y^T, y^ = y / |y|, P = Id -
y^ y^T; on the sphere M~ agrees with M on tangent vectors and makes x the unit
normal, so the tangential part is the Euclidean projection P.  The ambient
Christoffel symbols Gamma~ of M~ give H~ = dX^T + Gamma~ X and nabla X =
P H~ P, and their derivative the second covariant derivative.

How the derivatives of [M~ | X] are taken is chosen from the metric and the
field alone (``LeviCivita.path``), and every path takes a linear field x -> A x:
  * round metric  ->  "closed" forms, M~ = Id;
  * the Lie derivative of g on any other metric  ->  the field's exact "flow"
    e^(tA) (``skew_exp``): the symmetric difference quotient of the
    pulled-back metric at flow time FLOW_TIME (``flow_lie_frame``), exact for
    a Killing field;
  * a metric that supplies ``rank_jet``, the 2-jets of the ingredients of M~
    in the rank form alpha Id + sum_k a_k v_k^T (``Jet``, forward mode)  ->
    the "jet": ``LeviCivita.jet`` contracts them to M~, its derivative and
    the two second-order contractions with X that nabla^2 X reads, and
    composes those with y -> y^ once, never forming the d^4 Hessian of M~.
A field with no generator, and a metric other than the round one with no
``rank_jet``, are refused by name.

Tangent frames are Gram-Schmidt of the Euclidean frame, in closed form on the
round metric and in Cholesky form on any other (``LeviCivita.frame``), and the
complement of excluded vectors is one Householder QR in a frame's coordinates;
frames, the derived structure and the second covariant derivative take one
point or a stack, so a battery builds them once per chunk of its sample and
shares them between its checks: ``structure_at`` builds the chunk's one jet,
which ``second_nabla_frame`` and the checks read from the structure.
``structure_at`` and ``second_nabla_frame`` take a field, or on the round
metric a (G, d, d) stack of linear generators, whose G fields share one metric
evaluation and one frame.  ``sample_chunks`` sizes every chunk of a battery's
sample by one budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .sphere import matvec, orthonormal_tangent_frame, rowdot, tangent_seeds, unit_sample

FRAME_RANK_TOL = 1e-8
# The arrays one chunk of sample points may hold, at ``sample_bytes`` a point: 214 points
# at d = 8 (gF) and 589 at d = 6 (irregular), so at 200 samples every default battery but
# quaternionic --m 2 is one chunk and builds one jet.  A quarter of it (53 points a jet at
# d = 8) took 1.04 times as long on gF, a sixteenth (13) 1.7 times
CHUNK_BYTES = 9 << 19  # 4.5 MiB
# Flow time t of ``flow_lie_frame``.  A Killing field reads rounding over t
# (~4e-13 on gF and irregular), any other field L_xi g + O(t^2) (~1e-5
# relative on gF); a smaller t raises the first, a larger one the second.
FLOW_TIME = 1e-3


class NumericalQualityError(RuntimeError):
    """A finite difference cannot be trusted (its spacing too large, rounded
    away, or failing the halving check of ``verify.richardson_guard``), or a
    drawn sample leaves a check nothing to measure."""


class MetricDegeneracyError(ValueError):
    """A metric stopped being positive definite on the tangent space."""


def sample_bytes(d: int) -> int:
    """Bytes one sample point of a battery's chunk holds in ambient dimension
    d: the larger of the arrays its FieldJet holds, 4 d^3 + 3 d^2 + d
    doubles, and the Nijenhuis contraction's ~8 (d - 1)^3.  Building the jet
    and reading it pass through more, which come and go: the tracemalloc peak
    of a gF or irregular chunk's rows reads 15-23 d^3 doubles a point at d =
    6 to 18 (68 KB a point on gF at d = 8, 3.1 times this figure)."""
    return max(8 * (4 * d ** 3 + 3 * d * d + d), 64 * (d - 1) ** 3)


def sample_chunks(n: int, point_bytes: int) -> list[slice]:
    """Row slices covering n points, as many a slice as CHUNK_BYTES holds at
    point_bytes a point, and at least one."""
    rows = max(1, CHUNK_BYTES // point_bytes)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def skew_exp(A: np.ndarray) -> np.ndarray:
    """e^A of a real skew-symmetric A (d, d), or of each matrix of a stack
    (..., d, d) by one batched ``eigh``: iA is Hermitian, iA = V W V^H, so
    e^A = V e^(-iW) V^H, real up to rounding."""
    w, V = np.linalg.eigh(1j * np.asarray(A, dtype=float))
    return ((V * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)).real


# ---------------------------------------------------------------------------
# 2-jets: values with their first two derivatives, carried exactly
# ---------------------------------------------------------------------------

class Jet(NamedTuple):
    """A function of a point z in R^m with its first two derivatives at a
    point or a stack of points, carried forward through each operation by the
    product and chain rules (Rall, LNCS 120 (1981); Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM (2008), ch. 13): the value v (...,
    c), the gradient d (..., m, c) with d[..., l, :] = d_l v, and the Hessian
    dd (..., m, m, c), the components on the last axis (a scalar has one).
    Products are componentwise and broadcast over leading axes and
    components."""

    v: np.ndarray
    d: np.ndarray
    dd: np.ndarray

    def __mul__(self, other: Jet) -> Jet:
        a, b = self, other
        d = a.d * b.v[..., None, :] + a.v[..., None, :] * b.d
        ab = a.d[..., :, None, :] * b.d[..., None, :, :]
        dd = (a.dd * b.v[..., None, None, :] + a.v[..., None, None, :] * b.dd
              + ab + np.swapaxes(ab, -2, -3))
        return Jet(a.v * b.v, d, dd)

    def sum(self) -> Jet:
        """The sum of the components, a scalar."""
        return Jet(*(part.sum(axis=-1, keepdims=True) for part in self))

    def part(self, sl) -> Jet:
        """The components ``sl``."""
        return Jet(*(part[..., sl] for part in self))

    def terms(self) -> Jet:
        """The components as a stack of scalars (``stack``)."""
        return Jet(self.v[..., None], np.moveaxis(self.d, -1, -2)[..., None],
                   np.moveaxis(self.dd, -1, -3)[..., None])

    def lin(self, L: np.ndarray) -> Jet:
        """The components mapped by the matrix L (c', c)."""
        return Jet(*(part @ L.T for part in self))

    def apply(self, f, f1, f2) -> Jet:
        """A function of one variable applied to each component: f, f' and
        f'' are its value and derivatives at the components' values."""
        dd = f2[..., None, None, :] * self.d[..., :, None, :] * self.d[..., None, :, :]
        return Jet(f, f1[..., None, :] * self.d, dd + f1[..., None, None, :] * self.dd)

    def embed(self, d: int) -> Jet:
        """A function of the last m of d coordinates with c components as one
        of all d with d, its components the last c."""
        m, c = self.d.shape[-2], self.v.shape[-1]
        v, D, dd = (np.zeros(part.shape[:-1 - k] + (d,) * (k + 1)) for k, part in enumerate(self))
        v[..., d - c:], D[..., d - m:, d - c:], dd[..., d - m:, d - m:, d - c:] = self
        return Jet(v, D, dd)

    @staticmethod
    def point(x: np.ndarray) -> Jet:
        """The coordinates z at the points x (..., m): gradient Id, Hessian 0."""
        m = x.shape[-1]
        return Jet(x, np.broadcast_to(np.eye(m), x.shape + (m,)),
                   np.broadcast_to(0.0, x.shape + (m, m)))

    @staticmethod
    def stack(jets: Sequence[Jet]) -> Jet:
        """The jets along a new axis before the derivative axes."""
        return Jet(*(np.stack(parts, axis=-1 - k) for k, parts in enumerate(zip(*jets), 1)))


def unit_jet(x: np.ndarray) -> Jet:
    """The 2-jet of y^ = y / |y| at unit points x (..., d): value x, gradient
    P = Id - x x^T, and d_p d_l y^_a = 3 x_p x_l x_a - delta_pa x_l - delta_la x_p
    - delta_pl x_a."""
    d = x.shape[-1]
    P = np.eye(d) - x[..., :, None] * x[..., None, :]
    xP = x[..., :, None, None] * P[..., None, :, :]   # x_p P_la
    dd = -(xP + np.swapaxes(xP, -3, -2)) - x[..., None, None, :] * P[..., :, :, None]
    return Jet(x, P, dd)


class FieldJet(NamedTuple):
    """[M~ | X] to second order at a stack of unit points x (N, d), in the
    contractions the connection reads: M~ (N, d, d), its inverse, dg[n, l, i, j]
    = d_l M~_ij, the Christoffel symbols Gamma~[n, k, i, j], the field X and
    dX[n, l, k] = d_l X^k, H~ = dX^T + Gamma~ X, and with X held at its value
    X0 at each point, Q[n, i, j, m] = d_i d_j (M~ X0)_m and R[n, i, j, m] =
    d_i (D_X0 M~)_jm; X is linear, so d^2 X = 0.  Built once per chunk
    (``LeviCivita.jet``) and read by nabla X and nabla^2 X."""

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    Gamma: np.ndarray
    X: np.ndarray
    dX: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def field_jet(g, dg, X, dX, Q, R) -> FieldJet:
    """The FieldJet of M~, dg, X, dX, Q and R: the inverse, the Christoffel
    symbols and H~ formed once."""
    d = g.shape[-1]
    ginv = np.linalg.inv(g)
    Gamma = _christoffel(ginv, dg)
    X = np.ascontiguousarray(X)
    H = np.swapaxes(dX, -1, -2) + (Gamma.reshape(Gamma.shape[:-3] + (d * d, d))
                                   @ X[..., None]).reshape(Gamma.shape[:-1])
    return FieldJet(g, ginv, dg, Gamma, X, dX, H, Q, R)


def second_nabla(fj: FieldJet, x: np.ndarray, F: np.ndarray) -> np.ndarray:
    """T[n, :, i, j] = (nabla^2 X)(f_i, f_j) at points x (n, d) on frames F (n,
    d, k) from the FieldJet fj there: the tangential part (Gauss) of the
    ambient second derivative, with w(u) = u + Gamma~(u, x) the ambient
    derivative of the position,

      T(u, v) = P[(D~_u H~) v] - (w(u)^T M~ v) P H~ x - (x^T H~ v) P w(u),

    where d_i H~ needs d_i Gamma~ only against X: with LX[m, j] = Gamma_{m, jl}
    X^l (first kind), d_i (Gamma~ X) = M~^-1 (d_i LX - (d_i M~) Gamma~ X) and
    d_i LX[m, j] = (Q[i, j, m] - Q[i, m, j] + R[i, j, m]) / 2."""
    n, d = x.shape
    g, Gamma, H = fj.g, fj.Gamma, fj.H
    Gl = Gamma.reshape(n, d * d, d)  # [n, (k, j), l]: contractions over l are matmuls
    GX = (Gl @ fj.X[..., None]).reshape(n, d, d)
    dLX = 0.5 * (np.swapaxes(fj.Q, -1, -2) - fj.Q + fj.R)            # [n, i, m, j]
    # dH[n, i, k, j] = d_i H^k_j = d_i (Gamma X)^k_j + Gamma^k_{jl} d_i X^l, X linear
    dH = fj.ginv[:, None] @ (dLX - fj.dg @ GX[:, None])
    dH += (fj.dX @ np.swapaxes(Gl, -1, -2)).reshape(n, d, d, d)
    # DH[n, k, i, j] = d_i H^k_j + Gamma^k_{i l} H^l_j - Gamma^l_{i j} H^k_l
    DH = (np.swapaxes(dH, 1, 2) + (Gl @ H).reshape(n, d, d, d)
          - (H @ Gamma.reshape(n, d, d * d)).reshape(n, d, d, d))
    Ft = np.swapaxes(F, -1, -2)
    Tf = Ft[:, None] @ DH @ F[:, None]                            # (n, d, k, k)
    W = F + (Gl @ x[..., None]).reshape(n, d, d) @ F              # w(f_i)
    c1 = np.swapaxes(W, -1, -2) @ g @ F                           # w(f_i)^T M~ f_j
    c2 = (x[:, None, :] @ H @ F)[:, 0]                            # x^T H~ f_j
    Tf -= c1[:, None] * matvec(H, x)[:, :, None, None] + c2[:, None, None, :] * W[..., None]
    xTf = (x[:, None, :] @ Tf.reshape(n, d, -1)).reshape(Tf.shape[:1] + Tf.shape[2:])
    return Tf - x[:, :, None, None] * xTf[:, None]


# ---------------------------------------------------------------------------
# fields and metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VectorField:
    """Tangent vector field given by an ambient-coordinates callable, linear
    (value A x with A skew, hence tangent) exactly when ``matrix`` keeps A.
    ``value`` takes one point (d,) or a stack (..., d) and calls ``func`` once
    on it, so ``func`` maps (..., d) to (..., d).
    """

    func: Callable[[np.ndarray], np.ndarray]
    matrix: np.ndarray | None = None

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.func(np.asarray(x, dtype=float))


def linear_field(A) -> VectorField:
    """Field x -> A x; A must be skew so the values are tangent everywhere.  A
    stack (G, d, d) of skew generators is a family of G fields whose values
    carry a leading G axis."""
    A = np.array(A, dtype=float)
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A + np.swapaxes(A, -1, -2)).max() > 1e-12 * scale:
        raise ValueError("linear_field requires a skew-symmetric generator")
    A.setflags(write=False)
    return _linear(A)


def _linear(A: np.ndarray) -> VectorField:
    return VectorField(lambda x: A @ x if x.ndim == 1 else x @ np.swapaxes(A, -1, -2), A)


def as_field(fld) -> VectorField:
    """A field as it is, or a generator (d, d) or stack (G, d, d) as its linear
    field, read as given: neither copied nor refused for skewness, so a fit
    that is skew only to its own residual is measured, not refused."""
    return fld if isinstance(fld, VectorField) else _linear(np.asarray(fld, dtype=float))


def at_points(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A generator (d, d), or a stack (G, d, d), with a unit axis after G for
    each sample axis of x (..., d): every generator meets every point."""
    return A.reshape(A.shape[:-2] + (1,) * (x.ndim - 1) + A.shape[-2:])


@dataclass(frozen=True, eq=False)
class MetricField:
    """Riemannian metric as an ambient Gram-operator field; ``matrix_func``
    maps one point (d,) to (d, d) and a stack (..., d) to (..., d, d).
    ``rank_jet``, when given, maps unit points x (N, d) to the 2-jets at x of
    the ingredients of the extended metric in rank form as functions of z in
    R^d, G(z) = alpha(z) Id + sum_k a_k(z) v_k(z)^T equal to M~(z) wherever |z|
    = 1: alpha a scalar, a and v stacks of K vectors (``Jet.stack``);
    ``LeviCivita.jet`` composes them with y -> y^."""

    matrix_func: Callable[[np.ndarray], np.ndarray]
    dim: int
    exact_round: bool = False
    name: str = ""
    rank_jet: Callable[[np.ndarray], tuple[Jet, Jet, Jet]] | None = None

    def matrix_at(self, x: np.ndarray) -> np.ndarray:
        return self.matrix_func(np.asarray(x, dtype=float))


def round_metric(dim: int) -> MetricField:
    """Induced metric of the unit embedding; Gram operator is the identity."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return MetricField(
        lambda x: eye if x.ndim == 1 else np.broadcast_to(eye, x.shape[:-1] + eye.shape),
        dim=dim, exact_round=True, name="round")


def g_orthonormal_frame(metric_matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g-orthonormal basis of the tangent space, columns of a (d, d-1) array.

    Gram-Schmidt of the ``tangent_seeds`` T in Cholesky form, T^T M T = L L^T
    and F = T L^-T; points (N, d) with metrics (N, d, d) give (N, d, d-1).  A
    pivot below FRAME_RANK_TOL raises MetricDegeneracyError.
    """
    x = np.asarray(x, dtype=float)
    T, _ = tangent_seeds(x)
    Tt = np.swapaxes(T, -1, -2)
    G = Tt @ metric_matrix @ T
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise _degeneracy(G, x) from None
    if np.diagonal(L, axis1=-2, axis2=-1).min() < FRAME_RANK_TOL:
        raise _degeneracy(G, x)
    return np.swapaxes(np.linalg.solve(L, Tt), -1, -2)


def g_orthonormal_complement(frame: np.ndarray, metric_matrix: np.ndarray, x: np.ndarray,
                             exclude: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinates in the g-orthonormal tangent frame F (d, k) at x of a
    g-orthonormal basis of the g-orthogonal complement in T_x of the e vectors
    ``exclude`` (each (d,), or (N, d) with F (N, d, k)): (k, k - e), or (N, k, k - e).

    For F from ``LeviCivita.frame`` (g-Gram-Schmidt of the Euclidean frame E),
    F^T M E is upper triangular, so g-Gram-Schmidt of [V, E_0, ..., E_{k-e-1}]
    is, in F's coordinates, Euclidean Gram-Schmidt of [F^T M V, e_0, ...,
    e_{k-e-1}]: Q[:, e:] of one Householder QR (Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 5.2) signed so that diag R > 0, orthonormal
    at any pivot.  An excluded vector off T_x (|v.x| > FRAME_RANK_TOL) raises
    MetricDegeneracyError; one of R's first e pivots below FRAME_RANK_TOL
    (dependent exclusions) raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    V = np.stack([np.broadcast_to(v, x.shape) for v in exclude], axis=-1)  # (..., d, e)
    k, e = frame.shape[-1], V.shape[-1]
    off = np.abs(x[..., None, :] @ V).max()
    if not off <= FRAME_RANK_TOL:  # also refuses NaN
        raise MetricDegeneracyError(
            f"tangent frame construction lost rank: an excluded vector leaves the tangent "
            f"space, |v.x| = {off:.3e}")
    Vf = np.swapaxes(frame, -1, -2) @ metric_matrix @ V
    seeds = np.broadcast_to(np.eye(k)[:, :max(k - e, 0)], Vf.shape[:-1] + (max(k - e, 0),))
    Q, R = np.linalg.qr(np.concatenate([Vf, seeds], axis=-1))
    pivots = np.diagonal(R, axis1=-2, axis2=-1)
    if e > k or not np.abs(pivots[..., :e]).min() >= FRAME_RANK_TOL:
        raise ValueError("excluded vectors are g-degenerate or dependent")
    return (Q * np.where(pivots < 0.0, -1.0, 1.0)[..., None, :])[..., e:]


def _degeneracy(G: np.ndarray, x: np.ndarray) -> MetricDegeneracyError:
    """Name the first point of x (..., d) and the first Cholesky pivot of its
    tangent Gram matrix G (..., k, k) that falls below FRAME_RANK_TOL^2, the
    squared pivots taken by Schur complements: a non-positive pivot gives
    non-finite or negative entries from there on instead of an exception."""
    G, x = G.reshape((-1,) + G.shape[-2:]), x.reshape(-1, x.shape[-1])
    piv = np.empty(G.shape[:-1])
    with np.errstate(all="ignore"):
        for k in range(G.shape[-1]):  # piv[:, k] = L[:, k, k]^2
            piv[:, k] = G[:, k, k]
            G = G - G[:, :, k, None] * G[:, None, k, :] / piv[:, k, None, None]
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


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[..., k, i, j] from the inverse metric ginv
    (..., m, m) and the metric derivatives dg[..., l, i, j] = d g_ij / d y_l."""
    m = ginv.shape[-1]
    lower = _lower(dg)
    # inv then matmul: a batched solve with m^2 right-hand sides takes ~4x as long
    return (ginv @ lower.reshape(lower.shape[:-3] + (m, m * m))).reshape(lower.shape)


# ---------------------------------------------------------------------------
# structure bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructureTensors:
    """Pointwise package used by the verification batteries.

    ``eta`` holds the ambient components M xi of the field's metric-dual
    one-form eta; ``nabla_endo`` is the ambient matrix N with N v =
    (covariant derivative of the field along v) for tangent v; ``dxi`` is the
    ambient matrix D of d(eta), d(eta)(u, v) = u^T D v; ``phi_frame`` and
    ``phi_ambient`` represent the skew endomorphism defined by g(phi u, v) =
    d(eta)(u, v) / 2.  ``x`` is the point (d,) or the sample (N, d) it was
    built at; built at a sample, every array carries an axis of N.  Built
    for a stack of G generators, every array but the shared ``x``,
    ``metric_matrix`` and ``frame`` carries a leading axis of G, before N.
    ``jet`` is the FieldJet it was built from on the "jet" path, else None;
    it belongs to the whole sample, so ``rows`` leaves it out.
    """

    x: np.ndarray
    xi: np.ndarray
    metric_matrix: np.ndarray
    eta: np.ndarray
    frame: np.ndarray
    nabla_endo: np.ndarray
    dxi: np.ndarray
    phi_frame: np.ndarray
    phi_ambient: np.ndarray
    jet: FieldJet | None = None

    _SHARED = ("x", "metric_matrix", "frame")  # the arrays a stack's fields share

    def _arrays(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "jet"}

    def rows(self, sl: slice) -> StructureTensors:
        """The same structure at the rows ``sl`` of a sample, without its jet."""
        per_field = (slice(None),) * (self.xi.ndim - self.x.ndim) + (sl,)
        return StructureTensors(**{k: v[sl if k in self._SHARED else per_field]
                                   for k, v in self._arrays().items()})

    def fields(self, index) -> StructureTensors:
        """The structure of the fields ``index`` (an int, slice or index array)
        of a stack, which takes no jet."""
        return StructureTensors(**{k: v if k in self._SHARED else v[index]
                                   for k, v in self._arrays().items()})


# ---------------------------------------------------------------------------
# Levi-Civita machinery
# ---------------------------------------------------------------------------

class LeviCivita:
    """Covariant differentiation for a metric field on an odd sphere."""

    def __init__(self, metric: MetricField):
        self.metric = metric

    def path(self, fld, owner: str, lie: bool) -> tuple[VectorField, str]:
        """``fld`` (``as_field``) and how ``owner`` differentiates it, read off
        the metric alone: "closed" forms on the round metric; the exact "flow"
        for the Lie derivative (``lie``) on any other; else the "jet" of a
        metric with ``rank_jet``.  A field with no generator, a metric with
        neither closed forms nor ``rank_jet``, and a stack of generators
        off the round metric are refused by name."""
        fld = as_field(fld)
        if fld.matrix is None:
            raise ValueError(f"{owner} differentiates a linear field x -> A x, and this "
                             f"field has no generator")
        if self.metric.exact_round or lie:
            return fld, "closed" if self.metric.exact_round else "flow"
        if self.metric.rank_jet is None:
            raise ValueError(f"{owner} differentiates a field on a metric other than the round "
                             f"one through its rank_jet, which the {self.metric.name or 'unnamed'} "
                             f"metric does not supply")
        if fld.matrix.ndim == 3:
            raise ValueError(
                f"{owner} takes a stack of generators only on the round metric, whose closed "
                f"forms it reads; the {self.metric.name} metric takes one field at a time")
        return fld, "jet"

    def frame(self, x: np.ndarray, metric_matrix: np.ndarray) -> np.ndarray:
        """g-orthonormal tangent frame at x (d,) or at each row of x (N, d),
        ``metric_matrix`` the metric there: on the round metric the closed
        form ``orthonormal_tangent_frame``, else ``g_orthonormal_frame``."""
        if self.metric.exact_round:
            return orthonormal_tangent_frame(x)
        return g_orthonormal_frame(metric_matrix, x)

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
        """Ambient Christoffel symbols Gamma~[..., k, i, j] of M~ at unit
        points x (..., d): zero on the round metric, where M~ = Id, and else
        the metric part of ``jet``, which no field enters (taken here along the
        zero field)."""
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        fld, _ = self.path(np.zeros((d, d)), "christoffel", False)
        return self.jet(fld, x.reshape(-1, d)).Gamma.reshape(x.shape + (d, d))

    # -- the jet -----------------------------------------------------------------

    def jet(self, fld, x: np.ndarray) -> FieldJet:
        """The FieldJet of the linear field ``fld`` (x -> A x) at unit points x
        (N, d), exactly.  The round metric's is M~ = Id, whose derivatives
        vanish.  Any other's ``rank_jet`` gives the 2-jets at x of alpha, a_k
        and v_k as functions of z, with G(z) = alpha Id + sum_k a_k v_k^T equal
        to M~ on the unit sphere, so M~(y) = G(y^).  Its contractions with X0
        = A x, nu_k = v_k . X0 and D = X0 . d,

          dG[l, i, j] = d_l alpha delta_ij + sum_k (d_l a_ki v_kj + a_ki d_l v_kj),
          Q[i, j, m]  = d_i d_j alpha X0_m + sum_k d_i d_j (a_km nu_k),
          R[i, j, m]  = d_i D alpha delta_jm + sum_k d_i (D a_kj v_km + a_kj D v_km),

        are each a matmul over the stacked k, and the chain rule through y ->
        y^ (gradient P, Hessian Y of ``unit_jet``; X0 is tangent, P X0 = X0)
        gives M~'s: dg = P dG, Q~ = P Q P + Y (dG X0) and R~ = P R + (Y X0) dG,
        summed over the inner axis of y^.  No array of the d^4 second
        derivatives of M~ is formed."""
        A = as_field(fld).matrix
        x = np.asarray(x, dtype=float)
        n, d = x.shape
        X0 = x @ A.T
        dX = np.broadcast_to(A.T, (n, d, d))
        if self.metric.exact_round:
            eye, zero = np.broadcast_to(np.eye(d), (n, d, d)), np.broadcast_to(0.0, (n, d, d, d))
            H = np.swapaxes(dX, -1, -2)
            return FieldJet(eye, eye, zero, zero, X0, dX, H, zero, zero)
        alpha, a, v = self.metric.rank_jet(x)
        aT = np.swapaxes(a.v, -1, -2)
        # the terms' axis k last: [n, ..., k], to contract against [n, k, ...]
        ad_k, add_k = np.moveaxis(a.d, 1, -1), np.moveaxis(a.dd, 1, -1)
        nu = v.v @ X0[:, :, None]                                           # (n, k, 1)
        dnu = (v.d @ X0[:, None, :, None])[..., 0]                          # d_l nu_k
        ddnu = (v.dd @ X0[:, None, None, :, None])[..., 0]                  # d_i d_j nu_k
        Da, Dv = ((X0[:, None, None, :] @ jet.d)[:, :, 0] for jet in (a, v))  # D a_k, D v_k
        dDa, dDv = ((X0[:, None, None, None, :] @ jet.dd)[:, :, :, 0] for jet in (a, v))
        eye = np.eye(d)
        g = alpha.v[:, :, None] * eye + aT @ v.v
        dG = (alpha.d[..., None] * eye + ad_k @ v.v[:, None]
              + aT[:, None] @ np.swapaxes(v.d, 1, 2))
        S = np.swapaxes(ad_k @ dnu[:, None], -1, -2)                      # d_i a_km d_j nu_k
        Q = (alpha.dd * X0[:, None, None, :] + S + np.swapaxes(S, 1, 2)
             + (add_k @ nu[:, None, None])[..., 0]
             + (np.moveaxis(ddnu, 1, -1).reshape(n, d * d, -1) @ a.v).reshape(n, d, d, d))
        R = ((alpha.dd[..., 0] @ X0[:, :, None])[..., None] * eye
             + np.moveaxis(dDa, 1, -1) @ v.v[:, None] + ad_k @ Dv[:, None]
             + np.swapaxes(Da, -1, -2)[:, None] @ np.swapaxes(v.d, 1, 2)
             + aT[:, None] @ np.swapaxes(dDv, 1, 2))
        _, P, Y = unit_jet(x)
        flat = dG.reshape(n, d, d * d)
        YX = (X0[:, None, None, :] @ Y)[:, :, 0]                            # Y[i, l, a] X0_l
        Qy = P[:, None] @ (P @ Q.reshape(n, d, d * d)).reshape(n, d, d, d) + (
            Y.reshape(n, d * d, d) @ (dG @ X0[:, None, :, None])[..., 0]).reshape(n, d, d, d)
        Ry = (P @ R.reshape(n, d, d * d) + YX @ flat).reshape(n, d, d, d)
        return field_jet(g, (P @ flat).reshape(n, d, d, d), X0, dX, Qy, Ry)

    # -- first covariant derivative ------------------------------------------

    def nabla(self, fld: VectorField, x: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """Ambient components of the covariant derivative of ``fld`` along
        ``direction`` (an ambient tangent vector) at x: ``nabla_endo`` applied
        to it."""
        return matvec(self.nabla_endo(fld, x), np.asarray(direction, dtype=float))

    def nabla_endo(self, fld, x: np.ndarray, jet: FieldJet | None = None) -> np.ndarray:
        """Ambient matrix N with N v = nabla_v(field) for tangent v, N x = 0.

        ``x`` is one ambient point (d,) or a stack (..., d), which gives
        (..., d, d).  The closed form serves the round metric, where a (G, d,
        d) generator stack puts an axis of G in front, N = P A P; any other
        takes N = P H~ P, with H~ from the FieldJet (``jet``, built here when
        not given).
        """
        x = np.asarray(x, dtype=float)
        fld, how = self.path(fld, "nabla_endo", False)
        P = np.eye(x.shape[-1]) - x[..., :, None] * x[..., None, :]
        if how == "closed":
            return P @ at_points(fld.matrix, x) @ P
        jet = self.jet(fld, x.reshape(-1, x.shape[-1])) if jet is None else jet
        return P @ jet.H.reshape(P.shape) @ P

    # -- second covariant derivative ------------------------------------------

    def second_nabla_frame(self, fld, x: np.ndarray, frame: np.ndarray,
                           jet: FieldJet | None = None) -> np.ndarray:
        """Tensor T[:, i, j] = (nabla^2 field)(frame_i, frame_j), ambient values.

        T(u, v) = nabla_u (nabla field)(v); the closed form on the round
        sphere with field E x is T(f_i, f_j) = -(x.E f_j) P f_i - (f_i.f_j) P E x,
        P the tangent projector.  Any other metric reads the FieldJet of
        [M~ | X] (``second_nabla``) ``jet``, the one ``structure_at`` built at
        the points x (built here when not given).  Points (N, d) with frames
        (N, d, k) give (N, d, k, k).  ``fld`` is a field, or on the round
        metric a (G, d, d) stack of linear generators, which puts an axis of G
        in front.
        """
        x = np.asarray(x, dtype=float)
        fld, how = self.path(fld, "second_nabla_frame", False)
        if how == "closed":
            Ef = at_points(fld.matrix, x) @ frame
            Pf = frame - x[..., :, None] * (x[..., None, :] @ frame)
            Ex = x @ np.swapaxes(fld.matrix, -1, -2)
            PEx = Ex - rowdot(Ex, x)[..., None] * x
            xEf = (x[..., None, :] @ Ef)[..., 0, :]
            ff = np.swapaxes(frame, -1, -2) @ frame
            # a stack fills T a slice at a time: a second array of the whole stack's size
            # would take fresh pages from the allocator on every call
            T = np.empty(xEf.shape[:-1] + Pf.shape[-2:] + xEf.shape[-1:])
            for g in np.ndindex(xEf.shape[:-x.ndim]):
                np.einsum("...j,...di->...dij", -xEf[g], Pf, out=T[g])
                T[g] -= np.einsum("...ij,...d->...dij", ff, PEx[g])
            return T
        xs, fs = x.reshape(-1, x.shape[-1]), frame.reshape((-1,) + frame.shape[-2:])
        T = second_nabla(self.jet(fld, xs) if jet is None else jet, xs, fs)
        return T.reshape(frame.shape + frame.shape[-1:])

    # -- derived structure ----------------------------------------------------
    # Each takes one point (d,) or a stack (N, d), giving results stacked along N.

    def lie_metric_frame(self, fld, x: np.ndarray,
                         frame: np.ndarray | None = None) -> np.ndarray:
        """Lie derivative of g along the field, as a matrix in a g-orthonormal
        frame; identically zero iff the field is Killing at this point.

        ``fld`` is a field or a stack (G, d, d) of linear generators, put in
        front.  ``frame``, ``LeviCivita.frame``, is built here when not
        given.  The round metric takes the closed form N^T + N, N = P A P,
        any other the exact-flow quotient ``flow_lie_frame``."""
        x = np.asarray(x, dtype=float)
        fld, how = self.path(fld, "lie_metric_frame", True)
        if how == "flow":
            return self.flow_lie_frame(fld.matrix, x, frame=frame)
        # M = Id and N = P A P, so the Lie derivative is B + B^T with B = (P F)^T A (P F),
        # each generator against every point
        F = orthonormal_tangent_frame(x) if frame is None else frame
        PF = F - x[..., :, None] * (x[..., None, :] @ F)
        B = np.swapaxes(PF, -1, -2) @ (at_points(fld.matrix, x) @ PF)
        return B + np.swapaxes(B, -1, -2)

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
            frame = self.frame(x, self.metric.matrix_at(x))
        E = skew_exp(t * A)
        Es = at_points(np.stack([E, np.swapaxes(E, -1, -2)]), x)
        EF = Es @ frame
        P = np.swapaxes(EF, -1, -2) @ self.metric.matrix_at((Es @ x[..., None])[..., 0]) @ EF
        return (P[0] - P[1]) / (2.0 * t)

    def structure_at(self, fld, x: np.ndarray) -> StructureTensors:
        """Bundle: field value, metric, dual one-form, frame, first covariant
        derivative, two-form of the dual one-form, and the half-two-form
        endomorphism in frame and ambient forms, and on the "jet" path the
        FieldJet of the points (``jet``) they were read from.  The frame,
        ``LeviCivita.frame``, comes first, so a degenerate metric raises
        MetricDegeneracyError before a field is refused (``path``) or any
        derivative is taken.  ``x``, one point (d,) or a sample (N, d), is
        refused unless non-empty and on the unit sphere.  ``fld`` is a field,
        or on the round metric a (G, d, d) stack of linear generators, each G
        slice of the structure the field's own."""
        x = unit_sample("structure_at", x, (1, 2))
        M = self.metric.matrix_at(x)
        F = self.frame(x, M)
        fld, how = self.path(fld, "structure_at", False)
        Ft = np.swapaxes(F, -1, -2)
        xi = fld.value(x)
        jet = self.jet(fld, x.reshape(-1, x.shape[-1])) if how == "jet" else None
        N = self.nabla_endo(fld, x, jet)
        Nt = np.swapaxes(N, -1, -2)
        eye = self.metric.exact_round  # M = Id, whose products are skipped
        D = Nt - N if eye else Nt @ M - M @ N
        phi_frame = 0.5 * np.swapaxes(Ft @ D @ F, -1, -2)
        phi_ambient = F @ phi_frame @ Ft
        return StructureTensors(x=x, xi=xi, metric_matrix=M, eta=xi if eye else matvec(M, xi),
                                frame=F, nabla_endo=N, dxi=D, phi_frame=phi_frame,
                                phi_ambient=phi_ambient if eye else phi_ambient @ M, jet=jet)
