"""Concrete unit-Killing-field structures on odd spheres.

Builders for the example families exercised by the verification batteries:

  * ``build_round``         — round sphere with the standard circle field;
  * ``build_quaternionic``  — round S^(4m+3) with the right-multiplication
                              triple of unit Killing fields;
  * ``build_flip_fixture``  — mixed right/left quaternionic triple on R^8,
                              the (4,4) splitting + sign-flip fixture;
  * ``build_hopf``          — circle bundle over the half-radius 2-sphere;
                              lifting base Killing fields with a
                              Gauss–Legendre potential reproduces linear
                              ambient fields;
  * ``build_deformed``      — boundary-localized metric deformation keeping
                              the contact structure but breaking the wedge
                              identity and CR integrability (strength c);
  * ``build_irregular``     — metric making a dense-orbit (irrational rate
                              mix) linear field a unit Killing field with
                              the full wedge identity intact.

All generators are ambient matrices; all metrics are Gram-operator fields
(see metrics.MetricField).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .algebra import IsometryAlgebra, so_basis
from .flows import ExactScalar, RotationProfile
from .metrics import (
    MetricDegeneracyError,
    MetricField,
    VectorField,
    general_field,
    linear_field,
    round_metric,
    sample_chunks,
)
from .sphere import matvec, rowdot, unit_sample

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

# Quaternion multiplication operators on R^4 ~ (1, i, j, k) coordinates.
# RIGHT_* is q -> q * unit, LEFT_* is q -> unit * q; rights pairwise
# anticommute with R_a R_b = -R_c (cyclic), lefts give L_a L_b = +L_c,
# and every right commutes with every left.
RIGHT_I = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0]])
RIGHT_J = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0]])
RIGHT_K = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0]])
LEFT_I = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0]])
LEFT_J = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0]])
LEFT_K = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0]])


def std_complex_structure(d: int) -> np.ndarray:
    """Block-diagonal rotation by a quarter turn in each coordinate 2-plane."""
    if d % 2 != 0:
        raise ValueError("dimension must be even")
    return np.kron(np.eye(d // 2), J2)


def block_embed(block: np.ndarray, d: int, offset: int) -> np.ndarray:
    """A k x k block, or each of a stack (..., k, k), at offset in zero d x d."""
    k = block.shape[-1]
    out = np.zeros(block.shape[:-2] + (d, d))
    out[..., offset:offset + k, offset:offset + k] = block
    return out


def unitary_block_basis(n: int) -> np.ndarray:
    """(n^2, 2n, 2n) stack of the skew matrices commuting with the standard complex
    structure (complex skew-hermitian): J2 at 2x2 block (p, p) for each p, then for
    each p < q (row-major) Id at (p, q) with -Id at (q, p), and J2 at both."""
    p, q = np.triu_indices(n, 1)
    diag, re = np.arange(n), n + 2 * np.arange(len(p))
    basis = np.zeros((n * n, 2 * n, 2 * n))
    blocks = basis.reshape(n * n, n, 2, n, 2)  # blocks[k, p, :, q, :]: block (p, q)
    blocks[diag, diag, :, diag, :] = J2
    blocks[re, p, :, q, :], blocks[re, q, :, p, :] = np.eye(2), np.diag([-1.0, -1.0])
    blocks[re + 1, p, :, q, :] = blocks[re + 1, q, :, p, :] = J2
    return basis


# ---------------------------------------------------------------------------
# round structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RoundStructure:
    n: int
    dim: int
    metric: MetricField
    field: VectorField
    j0: np.ndarray

    def isometry_algebra(self) -> IsometryAlgebra:
        return IsometryAlgebra(so_basis(self.dim), name=f"so({self.dim})",
                               validate=False)

    def profile(self) -> RotationProfile:
        one = ExactScalar(Fraction(1))
        return RotationProfile(tuple([one] * (self.dim // 2)))


def build_round(n: int) -> RoundStructure:
    """Round S^(2n+1) with the unit Killing field of simultaneous rotation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 2 * n + 2
    j0 = std_complex_structure(d)
    return RoundStructure(n=n, dim=d, metric=round_metric(d),
                          field=linear_field(j0, name="circle_field"), j0=j0)


# ---------------------------------------------------------------------------
# quaternionic triple
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuaternionicStructure:
    m: int
    dim: int
    metric: MetricField
    fields: tuple[VectorField, VectorField, VectorField]
    generators: np.ndarray      # (3, d, d): xi_a = generators[a] x


def build_quaternionic(m: int) -> QuaternionicStructure:
    """Round S^(4m+3) with the right-multiplication triple of Killing fields."""
    if m < 0:
        raise ValueError("m must be >= 0")
    d = 4 * m + 4
    gens = np.stack([np.kron(np.eye(m + 1), R) for R in (RIGHT_I, RIGHT_J, RIGHT_K)])
    fields = tuple(linear_field(g, name=f"triple_{k}") for k, g in enumerate(gens))
    return QuaternionicStructure(m=m, dim=d, metric=round_metric(d),
                                 fields=fields, generators=gens)


# ---------------------------------------------------------------------------
# splitting fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FlipFixture:
    """Mixed-type anticommuting triple on R^8 with a (4,4) splitting.

    The first quaternionic block carries right multiplications, the second
    left multiplications; the triple product is +Id on the first block and
    -Id on the second, so the plus space has dimension 4 — the smallest a
    genuine anticommuting triple allows (plus-space dimensions are multiples
    of 4, which is why a direct (2,2) triple fixture cannot exist).
    """

    J: tuple[np.ndarray, np.ndarray, np.ndarray]
    metric_matrix: np.ndarray
    projector_plus: np.ndarray
    dim: int


def build_flip_fixture() -> FlipFixture:
    def two_block(right, left):
        out = np.zeros((8, 8))
        out[:4, :4] = right
        out[4:, 4:] = left
        return out

    J = (two_block(RIGHT_I, LEFT_I), two_block(RIGHT_J, LEFT_J),
         two_block(RIGHT_K, LEFT_K))
    proj = np.zeros((8, 8))
    proj[:4, :4] = np.eye(4)
    return FlipFixture(J=J, metric_matrix=np.eye(8), projector_plus=proj, dim=8)


# ---------------------------------------------------------------------------
# circle bundle over the half-radius 2-sphere
# ---------------------------------------------------------------------------

HOPF_QUADRATURE_STEPS = 16   # Gauss–Legendre nodes of build_hopf's lift quadrature
HOPF_ANTIPODE_MARGIN = 0.05  # base distance hopf_sample_filter keeps from the anchor antipode
# bytes per node and lifted vector: arc point, section, base vector and lift (tracemalloc
# peak of one lift_potential chunk: 126)
LIFT_NODE_BYTES = 128


@dataclass(frozen=True, eq=False)
class HopfBundle:
    """The circle bundle S^3 -> S^2(1/2) with its lift data.

    ``rule`` is the Gauss–Legendre rule of ``quadrature_steps`` nodes on
    [0, 1], read from ``gauss_legendre_rule``: a function of the step count
    alone, so a copy made by ``replace`` (a new anchor, say) reads the same
    arrays and none can go stale.
    """

    metric: MetricField
    field: VectorField
    j0: np.ndarray
    base_radius: float
    anchor: np.ndarray       # base point where lift potentials vanish
    quadrature_steps: int    # Gauss–Legendre nodes on each anchor-to-y arc

    @property
    def rule(self) -> tuple[np.ndarray, np.ndarray]:
        return gauss_legendre_rule(self.quadrature_steps)


@functools.cache
def gauss_legendre_rule(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``steps``-node Gauss–Legendre rule mapped onto
    [0, 1], built once per step count; the arrays are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(steps)
    rule = (0.5 * (nodes + 1.0), 0.5 * weights)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def build_hopf() -> HopfBundle:
    j0 = std_complex_structure(4)
    return HopfBundle(metric=round_metric(4), field=linear_field(j0, name="fiber_field"),
                      j0=j0, base_radius=0.5, anchor=np.array([0.0, 0.0, -0.5]),
                      quadrature_steps=HOPF_QUADRATURE_STEPS)


def hopf_projection(x: np.ndarray) -> np.ndarray:
    """Quotient map S^3 -> S^2(1/2); fibers are the circle-field orbits.

    ``x`` is one point (4,) or a stack (N, 4); the result is (3,) or (N, 3).
    """
    x0, x1, x2, x3 = np.asarray(x, dtype=float).T
    return np.stack([x0 * x2 + x1 * x3,
                     x1 * x2 - x0 * x3,
                     0.5 * (x0 * x0 + x1 * x1 - x2 * x2 - x3 * x3)], axis=-1)


def hopf_differential(x: np.ndarray) -> np.ndarray:
    """Jacobian of hopf_projection at one point (4,) or a stack (N, 4); the
    result is (3, 4) or (N, 3, 4)."""
    x0, x1, x2, x3 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    return np.stack([np.stack(row, axis=-1) for row in (
        (x2, x3, x0, x1),
        (-x3, x2, x1, -x0),
        (x0, x1, -x2, -x3))], axis=-2)


def _batched_sections(ys: np.ndarray) -> np.ndarray:
    w = np.sqrt(0.5 - ys[:, 2])
    return np.stack([ys[:, 0] / w, ys[:, 1] / w, w, np.zeros(len(ys))], axis=1)


def horizontal_lift_batch(xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Horizontal lifts dpi(xs)^T us of base vectors us to fiber points xs.

    The Hopf map is a Riemannian submersion: the rows of ``hopf_differential``
    are pairwise orthogonal signed permutations of x, so dpi dpi^T = |x|^2 Id,
    the identity on S^3.  So dpi^T u pushes forward to u, is orthogonal to the
    circle field (dpi j0 x = 0), and is tangent when u is tangent to the base
    at y = pi(x) (<x, dpi^T u> = <dpi x, u> = 2 <y, u>).  ``us`` is (N, 3) or
    a stack (R, N, 3) of vectors at the same points; the result is (N, 4) or
    (R, N, 4).
    """
    return (us[..., None, :] @ hopf_differential(xs))[..., 0, :]


def so3_basis() -> np.ndarray:
    """Rotation generators x -> e_a cross x of R^3, one (3, 3, 3) stack."""
    return np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                     [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                     [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


def lift_point_bytes(steps: int, generators: int) -> int:
    """Bytes a base point holds in a lift quadrature of the arc tangent and of
    the given number of generators."""
    return LIFT_NODE_BYTES * steps * (1 + generators)


def lift_potential(bundle: HopfBundle, base_gen: np.ndarray,
                   y: np.ndarray) -> float | np.ndarray:
    """Potential f at y with df = -(base field) contracted into the curvature
    two-form, normalized to vanish at the bundle anchor.

    ``base_gen`` is one base generator (3, 3) or a stack (G, 3, 3); ``y`` is
    one base point (3,) or a stack (N, 3).  One generator and one point give
    a float, one generator and a stack an (N,) array, a stack of generators
    a (G,) or (G, N) array.  Quadrature: the Gauss–Legendre rule
    ``bundle.rule`` along each great-circle arc from the anchor to y, over
    ``sample_chunks`` of ``lift_point_bytes`` a point.  The arc points, their
    sections and the lift of the arc tangent are built once and shared by
    every generator's integrand, and a chunk's lifts take one product with
    ``hopf_differential``.  Base points too close to the anchor's antipode,
    or not finite, are refused (the batteries filter samples instead of
    integrating through the bad chart).
    """
    gens = np.asarray(base_gen, dtype=float)
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    r = bundle.base_radius
    a = bundle.anchor / r
    b = ys / r
    theta = np.arccos(np.clip(b @ a, -1.0, 1.0))
    if not np.all(theta <= math.pi - 0.2):  # also refuses NaN
        raise ValueError("base point too close to the anchor antipode, or not finite; "
                         "filter samples before lifting")
    out = np.zeros((*gens.shape[:-2], len(ys)))
    live = np.flatnonzero(theta >= 1e-9)
    ts, weights = bundle.rule
    integrand = np.empty((*gens.shape[:-2], len(live), len(ts)))
    for rows in sample_chunks(len(live), lift_point_bytes(len(ts), len(gens.reshape(-1, 3, 3)))):
        th = theta[live[rows], None, None]            # (M, 1, 1)
        t = ts[None, :, None]                         # (1, K, 1)
        scale = r / np.sin(th)
        bl = b[live[rows], None, :]
        gam = (np.sin((1 - t) * th) * a + np.sin(t * th) * bl) * scale
        dgam = th * (np.cos(t * th) * bl - np.cos((1 - t) * th) * a) * scale
        pts = gam.reshape(-1, 3)
        us = pts @ np.swapaxes(gens, -1, -2)          # (..., M K, 3)
        lifts = horizontal_lift_batch(
            _batched_sections(pts),
            np.concatenate([dgam.reshape(1, -1, 3), us.reshape(-1, *pts.shape)]))
        lift_d, lift_x = lifts[0], lifts[1:].reshape(*us.shape[:-1], 4)
        # integrand: F(X, gamma') with F(u, v) = 2 <j0 u*, v*>
        integrand[..., rows, :] = 2.0 * np.einsum("...ni,ni->...n", lift_x @ bundle.j0.T,
                                                  lift_d).reshape(*gens.shape[:-2], -1, len(ts))
    # one weighted sum over every point: a BLAS gemv rounds a row by its place among the rows
    out[..., live] = -integrand @ weights
    if np.ndim(y) == 1:
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def lifted_field_value(bundle: HopfBundle, base_gen: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """Value at x of the lift of the base Killing field: horizontal lift of
    the base value plus the potential times the circle field.  ``base_gen``
    is one generator (3, 3) or a stack (G, 3, 3), ``x`` one point (4,) or a
    stack (N, 4) on S^3, refused by name off it; a stack of generators puts
    G in front of the result."""
    gens = np.asarray(base_gen, dtype=float)
    xs = np.atleast_2d(unit_sample("lifted_field_value", x, (1, 2)))
    ys = hopf_projection(xs)
    f = lift_potential(bundle, gens, ys)
    lift = horizontal_lift_batch(xs, ys @ np.swapaxes(gens, -1, -2))
    out = lift + f[..., None] * (xs @ bundle.j0.T)
    return out[..., 0, :] if np.ndim(x) == 1 else out


def fit_linear_generator(xs: np.ndarray,
                         values: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Least-squares ambient matrix B with B x_i ~ values_i, plus max defect.

    ``values`` is (N, k) or a stack (G, N, k); a stack takes all G fits in
    one ``lstsq`` and returns (G, k, d) matrices with a (G,) defect array."""
    values = np.moveaxis(np.asarray(values, dtype=float), -2, 0)   # (N, [G,] k)
    cols = values.reshape(len(xs), -1)
    sol, *_ = np.linalg.lstsq(xs, cols, rcond=None)
    defect = np.abs(xs @ sol - cols).reshape(values.shape).max(axis=(0, -1))
    B = np.moveaxis(sol.reshape(-1, *values.shape[1:]), 0, -1)
    return B, float(defect) if defect.ndim == 0 else defect


def hopf_sample_filter(xs: np.ndarray) -> np.ndarray:
    """The rows of a sample xs (N, 4) whose base image sits more than
    HOPF_ANTIPODE_MARGIN away from the anchor antipode (there the quadrature
    path and the section gauge both degenerate)."""
    xs = np.asarray(xs, dtype=float)
    return xs[0.5 - hopf_projection(xs)[:, 2] > HOPF_ANTIPODE_MARGIN]


def solve_lift(bundle: HopfBundle, base_gen: np.ndarray,
               xs: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Lift a base Killing generator through sampled potentials and fit the
    resulting ambient field by one linear generator.

    Returns (fitted matrix, max fit defect).  The defect doubles as the
    check that the lift construction lands on a linear — hence genuinely
    Killing — field.  A stack of generators (G, 3, 3) is lifted in one
    quadrature and fitted in one least-squares solve, giving (G, 4, 4)
    matrices and a (G,) defect array.  ``xs`` is an (N, 4) sample on S^3,
    refused by name off it.
    """
    xs = unit_sample("solve_lift", xs, (2,))
    return fit_linear_generator(xs, lifted_field_value(bundle, base_gen, xs))


# ---------------------------------------------------------------------------
# boundary-localized deformation (contact structure kept, wedge broken)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeformedStructure:
    n: int
    c: float
    dim: int
    metric: MetricField
    field: VectorField
    j0: np.ndarray
    x_field: VectorField        # the deformation direction field (vertical part)
    f_of: Callable[[np.ndarray], float]

    def isometry_algebra(self) -> IsometryAlgebra:
        d = self.dim
        basis = np.concatenate([block_embed(so_basis(d - 4), d, 0), self.j0[None]])
        return IsometryAlgebra(basis, name="deformation_invariance", validate=False)


def smooth_transition(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1; t is a scalar
    (giving a float) or an array."""
    t = np.asarray(t, dtype=float)
    out = np.array(t >= 1.0, dtype=float)
    mid = (t > 0.0) & (t < 1.0)
    b0 = np.exp(-1.0 / t[mid])
    b1 = np.exp(-1.0 / (1.0 - t[mid]))
    out[mid] = b0 / (b0 + b1)
    return float(out) if out.ndim == 0 else out


DEFORM_SUPPORT_LO = 0.05
DEFORM_SUPPORT_HI = 0.5
DEGENERACY_FLOOR = 1e-8


def build_deformed(n: int = 3, c: float = 0.3) -> DeformedStructure:
    """Metric deformation localized where a vertical direction field is large.

    The sphere splits as V1 (+) V2 with V2 the last four coordinates.  The
    direction field X lives in V2, is orthogonal to the circle field, and is
    equivariant under its flow; the metric stretches the plane (X, J0 X) by
    e^(2F) / e^(-2F) with F = c * chi(|X|^2) supported away from X = 0.  The
    circle field stays unit Killing with the same contact form (the metric is
    the round one transported by a field-direction scaling), but the wedge
    identity and CR integrability break on the support of F.

    Rejected as degenerate when the stretch reaches the conditioning floor.
    """
    if n < 3:
        raise ValueError("need n >= 3 so the fixed block V1 has dimension >= 4")
    if not math.isfinite(c):
        raise ValueError(f"c must be a finite number, got {c!r}")
    if math.exp(-2.0 * abs(c)) < DEGENERACY_FLOOR:
        raise MetricDegeneracyError(
            f"deformation strength c={c} makes the metric numerically degenerate "
            f"(stretch factor below {DEGENERACY_FLOOR})")
    d = 2 * n + 2
    j0 = std_complex_structure(d)
    lo, hi = DEFORM_SUPPORT_LO, DEFORM_SUPPORT_HI

    # Each callable takes one point (d,) or a stack (..., d).
    def x_vec(x: np.ndarray) -> np.ndarray:
        x2 = x[..., -4:]
        n2 = rowdot(x2, x2)
        live = n2 >= 1e-14
        w = matvec(RIGHT_J, x2)
        xi2 = matvec(LEFT_I, x2)
        coef = np.where(live, rowdot(w, xi2) / np.where(live, n2, 1.0), 0.0)
        out = np.zeros(x.shape)
        out[..., -4:] = np.where(live[..., None], w - coef[..., None] * xi2, 0.0)
        return out

    def f_of_vec(v: np.ndarray):
        return c * smooth_transition((rowdot(v, v) - lo) / (hi - lo))

    def f_of(x: np.ndarray):
        return f_of_vec(x_vec(x))

    eye = np.eye(d)

    def matrix_func(x: np.ndarray) -> np.ndarray:
        X = x_vec(x)
        F = np.asarray(f_of_vec(X))[..., None, None]
        nx = np.sqrt(rowdot(X, X))[..., None]
        nx = np.where(nx > 0.0, nx, 1.0)  # F = 0 there, so M = Id
        Xh = X / nx
        Yh = matvec(j0, X) / nx
        # eye + (e^(-2F) - 1) Xh Xh^T + (e^(2F) - 1) Yh Yh^T, accumulated in place
        M = np.einsum("...i,...j->...ij", Xh, Xh)
        M *= np.exp(-2.0 * F) - 1.0
        M += eye
        YY = np.einsum("...i,...j->...ij", Yh, Yh)
        YY *= np.exp(2.0 * F) - 1.0
        M += YY
        return M

    metric = MetricField("deformed", matrix_func, dim=d, exact_round=False,
                         name=f"deformed(c={c})")
    return DeformedStructure(
        n=n, c=c, dim=d, metric=metric,
        field=linear_field(j0, name="circle_field"), j0=j0,
        x_field=general_field(x_vec, name="deformation_direction"),
        f_of=f_of)


# ---------------------------------------------------------------------------
# inhomogeneous-rate unit Killing structure (dense generic orbits)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IrregularStructure:
    n: int
    a: ExactScalar
    dim: int
    metric: MetricField
    field: VectorField
    j0: np.ndarray
    j1: np.ndarray

    def profile(self) -> RotationProfile:
        one = ExactScalar(Fraction(1))
        first = ExactScalar(self.a.p + 1, self.a.q, self.a.tag)
        return RotationProfile((first,) + (one,) * ((self.dim - 2) // 2))

    def isometry_algebra(self) -> IsometryAlgebra:
        d = self.dim
        basis = np.concatenate([block_embed(J2, d, 0)[None],
                                block_embed(unitary_block_basis((d - 2) // 2), d, 2)])
        return IsometryAlgebra(basis, name="irregular_invariance", validate=False)


def build_irregular(n: int = 2, a: ExactScalar | None = None) -> IrregularStructure:
    """Metric on S^(2n+1) making the field x -> (J0 + a J1) x unit Killing.

    J1 rotates only the first coordinate pair, so the field's rotation rates
    are (1 + a, 1, ..., 1); with irrational a the generic orbits are dense in
    2-tori while the structure identities (wedge included) all hold.  The
    metric rescales the contact splitting of the new generator: unit along
    it, conformal factor 1/(1 + a|x_1|^2) transversally.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a is None:
        a = ExactScalar(Fraction(-1), Fraction(1), "sqrt2")  # sqrt(2) - 1
    a_val = a.value()
    if a_val <= -0.99:
        raise MetricDegeneracyError("rate offset a <= -0.99 degenerates the metric")
    d = 2 * n + 2
    j0 = std_complex_structure(d)
    j1 = block_embed(J2, d, 0)
    gen = j0 + a_val * j1
    eye = np.eye(d)
    coef = 2.0 * a_val + a_val * a_val

    def matrix_func(x: np.ndarray) -> np.ndarray:
        x1sq = (x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])[..., None, None]
        alpha = 1.0 / (1.0 + a_val * x1sq)
        t0 = matvec(j0, x)
        t = matvec(gen, x)
        t_sq = 1.0 + coef * x1sq
        outer00 = t0[..., :, None] * t0[..., None, :]
        cross = t[..., :, None] * t0[..., None, :]
        return (alpha * alpha * outer00
                + alpha * (eye - alpha * (cross + np.swapaxes(cross, -1, -2))
                           + alpha * alpha * t_sq * outer00))

    metric = MetricField("irregular", matrix_func, dim=d, exact_round=False,
                         name=f"irregular(a={a})")
    return IrregularStructure(n=n, a=a, dim=d, metric=metric,
                              field=linear_field(gen, name="mixed_rate_field"),
                              j0=j0, j1=j1)
