"""Residuals of the verification checks for unit Killing structures on odd spheres.

Each ``check_*`` function takes a sample of sphere points as one (N, d)
array, or the structures built on it, and returns the residual of one
tensor identity at every point: an (N,) array, a (G, N) stack for G fields,
or a scalar for a check of fixed matrices (``check_flip_quaternionic``
returns seven of them by name).  A check judges nothing: its
name, tolerance, expectation and fail floor are its row in a battery's
table in ``cli``, whose driver joins the row's residuals over the sample's
chunks into one ``CheckResult``.

Identity zoo, for a unit Killing field xi with dual one-form eta and
half-two-form endomorphism phi (see metrics.StructureTensors):

  * Killing:       Lie derivative of g along xi vanishes;
  * wedge form:    nabla^2 xi (u, v) = WEDGE_SIGN * (g(u,v) xi - eta(v) u);
  * contact endo:  phi^2 = -Id + eta (x) xi  and  phi xi = 0;
  * triples:       with psi_a = -phi_a, cyclic products of the three
                   structure endomorphisms close onto the third one plus an
                   eta (x) xi correction, anticommutators close exactly;
  * splitting:     psi_1 psi_2 psi_3 restricted to the common horizontal
                   space is a g-self-adjoint involution; its +1/-1
                   eigenspaces grade the horizontal geometry;
  * CR torsion:    the Nijenhuis-type tensor of phi restricted to the
                   horizontal distribution vanishes iff the structure is
                   integrable (it does for the round and the inhomogeneous
                   examples, and must not for the boundary-localized
                   deformation); contracted pointwise from nabla^2 xi.

At the sample's own points a check reads the field, the metric and the
contact form eta = M xi only from the structures its battery built there:
``st`` = ``lc.structure_at(fld, X)`` and ``T`` = ``lc.second_nabla_frame(fld,
X, st.frame, st.jet)``, where ``fld`` is a field, or a (G, d, d) stack of linear
generators on the round metric, whose arrays carry a leading G axis; a
triple's checks take the structure of its (3, d, d) generator stack, and
``st.rows(sl)`` serves a check on the rows ``X[sl]``.  ``check_killing``
alone takes the sample (``points``), refusing a bad one by name as
``structure_at`` does, and may be handed a shared frame.  The triple checks
take the bracket sign of ``measured_cyclic_sign`` as given, and their
cyclic products, anticommutators and squares are one index-array kernel,
``triple_defects``, that the flip fixture's complex structures share.

No check takes a step: ``metrics`` differentiates by closed forms, exact
flows and jets.  ``covariant_canary`` alone takes finite differences of
[M~ | X] at a step it is given, and ``richardson_guard`` compares them at h
and h / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sphere
from .algebra import field_bracket
from .metrics import (
    LeviCivita,
    NumericalQualityError,
    StructureTensors,
    VectorField,
    _christoffel,
    g_orthonormal_complement,
    sample_chunks,
)
from .sphere import matvec, rowdot

# Sign relating the second covariant derivative of a unit Killing field to
# the metric wedge of the field with the identity.  Fixed once by the round
# closed form (nabla^2 (A x))(u, v) = <A x, v> u - <u, v> A x and locked by a
# conformance test; every Sasakian-type check in this module uses it.
WEDGE_SIGN = -1.0

EXACT_TOL = 1e-10
FD_TOL = 1e-5
CONTACT_TOL = 1e-6
NIJENHUIS_TOL = 1e-4
UNIT_TOL = 1e-12
TANGENCY_TOL = 1e-10
# The steps of ``covariant_canary``, the package's only finite differences.  Its stencil
# points x +- h e_l sit at distance ~h from x on a unit sphere, whose curvature scale is
# 1.  A step beyond a few hundredths samples the metric far outside the neighbourhood of
# the base point, where step halving cannot tell a wrong value from a converged one (both
# halvings collapse to it).
DEFAULT_FD_STEP = 1e-4
MAX_FD_STEP = 0.02
RICHARDSON_REL_TOL = 1e-3
# Second-difference step over the first-difference one: its rounding floor eps / h^2
# is that of a step-h/3 difference nested in a step-10h one.
SECOND_DERIV_STEP_SCALE = (10.0 / 3.0) ** 0.5
# index arrays: a, b, c over the cyclic triples (a, b, c), and a, b over the pairs a < b
CYCLIC = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
PAIRS = np.array([[0, 0, 1], [1, 2, 2]])


def _worst(R: np.ndarray) -> np.ndarray:
    """Per-point max |entry| of a stack R (N, ...)."""
    return np.abs(R).reshape(len(R), -1).max(axis=1)


# ---------------------------------------------------------------------------
# basic pointwise batteries
# ---------------------------------------------------------------------------

def check_tangency(st: StructureTensors) -> np.ndarray:
    """|<field, base point>| at each point: values live in the tangent bundle."""
    return np.abs(rowdot(st.xi, st.x))


def check_unit_length(st: StructureTensors) -> np.ndarray:
    """|g(xi, xi) - 1| = |eta(xi) - 1| at each point."""
    return np.abs(rowdot(st.xi, st.eta) - 1.0)


def check_killing(lc: LeviCivita, fld, points, frame: np.ndarray | None = None) -> np.ndarray:
    """Max entry of the Lie derivative of g along the field, frame components,
    at each point: (N,) for a field, (G, N) for a stack (G, d, d) of linear
    generators, at the sample ``points`` (N, d), refused unless non-empty and
    on the unit sphere, on ``frame``, built here once when not given.  The
    stack runs in ``sample_chunks`` of the bytes a generator holds at the N
    points, about 64 (N + 1) d^2 in the round metric's closed form and
    128 (N + 1) d^2 along its exact flow.
    """
    X = sphere.unit_sample("check 'killing'", points, (2,))
    fld, how = lc.path(fld, "check 'killing'", True)
    frame = lc.frame(X, lc.metric.matrix_at(X)) if frame is None else frame
    A = fld.matrix
    gens = [fld] if A.ndim == 2 else [A[rows] for rows in sample_chunks(
        len(A), (64 if how == "closed" else 128) * (len(X) + 1) * X.shape[1] ** 2)]
    lies = (lc.lie_metric_frame(g, X, frame=frame) for g in gens)
    return np.concatenate([np.abs(L).reshape(*L.shape[:-2], -1).max(axis=-1) for L in lies])


def check_sasakian(st: StructureTensors, T: np.ndarray) -> np.ndarray:
    """Residual of nabla^2 xi(u,v) = WEDGE_SIGN (g(u,v) xi - eta(v) u) at each
    point of the sample of ``st``, an (N,) array, or (G, N) for a stack.

    Evaluated on the g-orthonormal frame ``st.frame`` of T =
    ``lc.second_nabla_frame(fld, st.x, st.frame)``; the residual is the
    largest ambient norm of the defect over all frame pairs.
    """
    F, xi = st.frame, st.xi
    eta_f = (st.eta[..., None, :] @ F)[..., 0, :]   # eta(f_j), (..., N, k)
    # defect = (T - WEDGE_SIGN delta_ij xi) + WEDGE_SIGN eta(f_j) f_i, summed into the
    # second term so that the shared T is only read
    diag = np.arange(F.shape[-1])
    # F copied along a stack's G axis: einsum multiplies a broadcast operand on a slow path
    F_each = np.ascontiguousarray(np.broadcast_to(F, eta_f.shape[:-1] + F.shape[-2:]))
    defect = np.einsum("...j,...di->...dij", WEDGE_SIGN * eta_f, F_each)
    defect_diag = defect[..., diag, diag]
    defect += T
    defect[..., diag, diag] = (T[..., diag, diag] - WEDGE_SIGN * xi[..., None]) + defect_diag
    norms = np.sqrt(np.einsum("...dij,...dij->...ij", defect, defect))
    return norms.reshape(xi.shape[:-1] + (-1,)).max(axis=-1)


def check_kcontact(st: StructureTensors) -> np.ndarray:
    """phi^2 = -Id + eta (x) xi together with phi xi = 0, frame components."""
    xi_f = (st.eta[:, None, :] @ st.frame)[:, 0]  # (N, k)
    k = st.frame.shape[-1]
    r1 = st.phi_frame @ st.phi_frame + np.eye(k) - xi_f[:, :, None] * xi_f[:, None, :]
    r2 = matvec(st.phi_frame, xi_f)
    return np.maximum(_worst(r1), _worst(r2))


def check_dxi_spectrum(st: StructureTensors, reference: Sequence[float]) -> np.ndarray:
    """Sorted eigenvalues of the square of the two-form endomorphism e
    (g(e u, v) = d(eta)(u, v)), 2 ``st.phi_frame`` in the frame, against a reference.

    The round unit structure gives -4 transversally and 0 along the field;
    localized metric boundary deformations shift the transverse part, which
    is what the expected-fail variant of this check pins down.  e is skew,
    so its square S is symmetric: the eigenvalues are those of the symmetric
    eigenproblem of (S + S^T) / 2, and max |S - S^T| joins each point's
    residual, so a two-form that is not skew cannot pass.
    """
    ref = np.sort(np.asarray(reference, dtype=float))
    e_frame = 2.0 * st.phi_frame
    S = e_frame @ e_frame
    asym = S - np.swapaxes(S, -1, -2)
    vals = np.linalg.eigvalsh(S - 0.5 * asym)  # ascending
    if vals.shape[-1:] != ref.shape:
        raise ValueError(f"reference spectrum has {ref.shape[0]} entries; "
                         f"the tangent space gives {vals.shape[-1]}")
    return _worst(vals - ref) + _max_entry(asym)


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


def covariant_canary(lc: LeviCivita, fld: VectorField, x: np.ndarray,
                     h: float = DEFAULT_FD_STEP) -> float:
    """Two step-halving guards at the point x (d,), from one evaluation of
    [M~ | X] (``LeviCivita.metric_and_field``) on the union of their points:
    the ambient first derivative H~ = dX^T + Gamma~ X from central
    differences along the d axes at step h and at h / 2, and the pure second
    differences of [M~ | X] along the g-orthonormal frame directions f_i, at
    h_2 = h SECOND_DERIV_STEP_SCALE and at h_2 / 2.  Both H~ take one stacked
    Christoffel solve.  It takes these differences whatever the metric and
    field, and no command runs it: the library differentiates with no step.

    Returns |P H~ P f_1| at h / 2.  Raises metrics.NumericalQualityError when
    the step cannot produce trustworthy derivatives, a numerical failure
    instead of silent garbage.  A step that is not positive raises
    ValueError, and one above MAX_FD_STEP NumericalQualityError.  A stencil
    point that rounds to x itself differences to exactly 0 at both steps,
    which agree, so it is refused before any evaluation.
    """
    if not h > 0:  # also refuses NaN, for which every comparison is false
        raise ValueError(f"fd_step must be a positive number, got {h!r}")
    if h > MAX_FD_STEP:
        raise NumericalQualityError(f"fd_step={h:g} exceeds the usable difference scale "
                                    f"(max {MAX_FD_STEP:g} on the unit sphere)")
    x = np.asarray(x, dtype=float)
    d, h2 = x.shape[-1], h * SECOND_DERIV_STEP_SCALE
    F = lc.frame(x, lc.metric.matrix_at(x))
    # [M~ | X] at x + s u for s = 1, -1, 1/2, -1/2 and u = h e_l, then h_2 f_i, and at x
    s = np.array([1.0, -1.0, 0.5, -0.5])[:, None, None]
    u = np.concatenate([h * np.eye(d), h2 * F.T])
    stencil = (x + s * u).reshape(-1, d)
    if (stencil == x).all(axis=-1).any():
        raise NumericalQualityError(
            f"fd_step={h:.3e} does not move the stencil: a point x + s u rounds to x, so its "
            f"difference reads 0 at every step")
    f = lc.metric_and_field(fld, np.concatenate([stencil, x[None]]))
    f0, (p, m, p2, m2) = f[-1], f[:-1].reshape((4, len(u)) + f.shape[1:])
    df = np.stack([(p - m)[:d] / (2 * h), (p2 - m2)[:d] / (2 * (h / 2))])  # [step, l, i, col]
    Gamma = _christoffel(np.linalg.inv(np.broadcast_to(f0[:, :-1], (2, d, d))), df[..., :-1])
    X = np.ascontiguousarray(f0[:, -1])  # einsum sums a strided operand in another order
    H = np.swapaxes(df[..., -1], -1, -2) + np.einsum("...kjl,...l->...kj", Gamma, X)
    H = richardson_guard(H[0], H[1], h)
    richardson_guard((p + m - 2.0 * f0)[d:] / h2 ** 2, (p2 + m2 - 2.0 * f0)[d:] / (h2 / 2) ** 2, h)
    P = np.eye(d) - np.outer(x, x)
    return float(np.linalg.norm(P @ H @ P @ F[:, 0]))


# ---------------------------------------------------------------------------
# triple structures
# ---------------------------------------------------------------------------

def check_triple_brackets(gens: np.ndarray, eps: int) -> float:
    """Exact matrix identity [xi_a, xi_b] = 2 eps xi_c, cyclic, of the
    generator stack (3, d, d) at the sign eps (``measured_cyclic_sign``)."""
    a, b, c = CYCLIC
    return float(np.abs(0.5 * field_bracket(gens[a], gens[b]) - eps * gens[c]).max())


def measured_cyclic_sign(gens: np.ndarray, tol: float = 1e-10) -> int:
    """Sign eps with [xi_a, xi_b] = 2 eps xi_c to ``tol`` for all cyclic (a,
    b, c) of the generator stack (3, d, d); raises if the brackets do not
    close onto the third generator with one uniform sign.
    """
    for eps in (1, -1):
        if check_triple_brackets(gens, eps) <= tol:
            return eps
    raise ValueError("triple brackets do not close onto the generators with one uniform sign")


def complete_pair(gens: np.ndarray) -> np.ndarray:
    """The generator stack (3, d, d) of a triple and, fourth, the half
    bracket [xi_1, xi_2] / 2 of its first pair, skew when they are."""
    return np.concatenate([gens, 0.5 * field_bracket(gens[:1], gens[1:2])])


def triple_defects(J: np.ndarray, relation: str, eps, units) -> np.ndarray:
    """Defects of one relation of a triple J (3, ..., k, k), stacked over its
    index tuples (CYCLIC, PAIRS, or each a for the squares): the relations of
    ``check_triple_products`` (aligned, transposed), ``check_anticommutators``
    and ``check_squares`` with psi_a = J_a, corrected by C_ab = eta_b (x) xi_a
    for unit structures (``units`` = (xi, eta), each (3, ..., d)), or
    uncorrected for complex structures on a whole space (``units`` None).
    ``eps`` is ignored by the sign-free relations, and may be an array that
    broadcasts."""
    def C(a, b):
        return 0.0 if units is None else units[0][a][..., :, None] * units[1][b][..., None, :]

    if relation == "squares":
        a = np.arange(3)
        return J @ J + np.eye(J.shape[-1]) - C(a, a)
    if relation == "anticommutators":
        a, b = PAIRS
        return J[a] @ J[b] + J[b] @ J[a] - C(b, a) - C(a, b)
    a, b, c = CYCLIC
    if relation == "aligned":
        return J[a] @ J[b] - eps * J[c] - C(a, b)
    if relation == "transposed":
        return J[b] @ J[a] - eps * J[c] + C(a, b)
    raise ValueError(f"unknown relation {relation!r}")


def _triple_worst(st: StructureTensors, relation: str, eps: int) -> np.ndarray:
    """Per-point max |entry| of a relation's defects for the triple of
    structures ``st``, psi_a = -phi_a, on tangent vectors (its frame)."""
    R = triple_defects(-st.phi_ambient, relation, eps, (st.xi, st.eta))
    return np.abs(R @ st.frame).max(axis=(0, -2, -1))


def check_triple_orthonormality(st: StructureTensors) -> np.ndarray:
    """g(xi_a, xi_b) = eta_b(xi_a) = delta_ab at every sample of the triple's
    structure ``st``."""
    xis, etas = np.moveaxis(st.xi, 0, -2), np.moveaxis(st.eta, 0, -2)  # (N, a, d)
    return _worst(xis @ np.swapaxes(etas, -1, -2) - np.eye(len(st.xi)))


def check_triple_products(st: StructureTensors, eps: int, variant: str = "aligned") -> np.ndarray:
    """Cyclic products of the triple's structure endomorphisms psi_a = -phi_a.

    With eps the bracket sign ([xi_a, xi_b] = 2 eps xi_c, ``measured_cyclic_sign``):

      aligned:    psi_a psi_b = eps psi_c + eta_b (x) xi_a
      transposed: psi_b psi_a = eps psi_c - eta_b (x) xi_a

    Exactly one of the two can hold on a canonical frame; batteries run the
    aligned variant as expected-pass and the transposed one as expected-fail,
    and the report records which convention the frame realizes.
    """
    if variant not in ("aligned", "transposed"):
        raise ValueError(f"unknown variant {variant!r}")
    return _triple_worst(st, variant, eps)


def check_anticommutators(st: StructureTensors) -> np.ndarray:
    """psi_a psi_b + psi_b psi_a = eta_a (x) xi_b + eta_b (x) xi_a for a != b.

    Sign-convention-free companion of the cyclic product identities.
    """
    return _triple_worst(st, "anticommutators", 0)


def check_squares(st: StructureTensors) -> np.ndarray:
    """psi_a^2 = -Id + eta_a (x) xi_a on tangent vectors, for each a."""
    return _triple_worst(st, "squares", 0)


def check_pair_completion(st: StructureTensors, gens: np.ndarray) -> np.ndarray:
    """Half the bracket of the first two fields completes the triple.

    ``st`` is the structure of the stack ``gens`` = ``complete_pair(...)``,
    whose fourth field xi_3' := [xi_1, xi_2] / 2 must be another unit Killing
    generator making the cyclic product identity hold.  Returns four rows
    (4, N) per point: the unit length of xi_3', the aligned triple identity
    for the completed family (xi_1, xi_2, xi_3') at its own bracket sign, and
    the reconstruction of xi_3' as + and as - the covariant derivative of the
    second field along the first; the sign that fits the whole sample best is
    the caller's to pick.
    """
    completed = [0, 1, 3]
    products = check_triple_products(st.fields(completed), measured_cyclic_sign(gens[completed]))
    # pointwise reconstruction: the covariant derivative of the second field
    # along the first reproduces the completed field up to a global sign
    d, xi3 = matvec(st.nabla_endo[1], st.xi[0]), st.xi[3]
    return np.stack([check_unit_length(st.fields(3)), products, _worst(d - xi3), _worst(d + xi3)])


# ---------------------------------------------------------------------------
# horizontal splitting and the sign flip
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvolutionSplit:
    """Eigenstructure of a g-self-adjoint involution in frame coordinates;
    split at a stack of operators, every field carries the stack's axes."""

    dim_plus: int | np.ndarray
    dim_minus: int | np.ndarray
    involution_residual: float | np.ndarray
    symmetry_residual: float | np.ndarray
    eigenvalues: np.ndarray
    projector_plus: np.ndarray  # frame coordinates

    @property
    def ok(self) -> bool:
        ev = np.abs(np.abs(self.eigenvalues) - 1.0)
        return bool(np.all(self.involution_residual < 1e-8)
                    and np.all(self.symmetry_residual < 1e-8) and np.all(ev < 1e-8))


def involution_split(P: np.ndarray) -> InvolutionSplit:
    """Split a (numerically) symmetric involution (k, k), or each of a stack
    (..., k, k), into +1/-1 eigenspaces."""
    P = np.asarray(P, dtype=float)
    Pt = np.swapaxes(P, -1, -2)
    vals, vecs = np.linalg.eigh(0.5 * (P + Pt))
    plus = vals > 0.0
    return InvolutionSplit(
        dim_plus=_item(plus.sum(axis=-1)),
        dim_minus=_item((vals < 0.0).sum(axis=-1)),
        involution_residual=_item(_max_entry(P @ P - np.eye(P.shape[-1]))),
        symmetry_residual=_item(_max_entry(P - Pt)),
        eigenvalues=vals,
        projector_plus=(vecs * plus[..., None, :]) @ np.swapaxes(vecs, -1, -2))


def _max_entry(R: np.ndarray) -> np.ndarray:
    """max |entry| over the last two axes of R (..., a, b); 0 when empty."""
    return np.abs(R).max(axis=(-2, -1), initial=0.0)


def _item(a: np.ndarray):
    """A 0-d result as a Python scalar, a stacked one as it is."""
    return a.item() if a.ndim == 0 else a


@dataclass(frozen=True)
class SplittingResult:
    """Splitting of the horizontal space by the triple product operator; at
    a stack of points every field carries a leading axis of N."""

    split: InvolutionSplit
    horizontal_frame: np.ndarray      # (d, d-4) g-orthonormal columns
    p_frame: np.ndarray               # operator in that frame
    invariance_residual: float | np.ndarray   # defect of P mapping the space to itself
    commutation_residual: float | np.ndarray  # defect of [P, psi_a] on the space

    @property
    def dim_plus(self) -> int | np.ndarray:
        return self.split.dim_plus

    @property
    def dim_minus(self) -> int | np.ndarray:
        return self.split.dim_minus

    @property
    def ok(self) -> bool:
        return bool(self.split.ok and np.all(self.invariance_residual < 1e-8)
                    and np.all(self.commutation_residual < 1e-8))


def horizontal_split(st: StructureTensors) -> SplittingResult:
    """Diagonalize psi_1 psi_2 psi_3 on the common horizontal space at the
    point (d,) or at each point of the sample (N, d) of the triple's
    structure ``st``.

    The horizontal space is the g-orthocomplement of the three generators in
    the tangent space; the triple product restricted there is a g-self-adjoint
    involution commuting with each psi_a, and its eigenspace dimensions are
    the splitting invariants (the round quaternionic frame gives (0, 4n)).
    On a dim-3 total space the horizontal space is empty and so is the split.
    """
    M, psis = st.metric_matrix, -st.phi_ambient
    FD = st.frame @ g_orthonormal_complement(st.frame, M, st.x, list(st.xi))
    FDt_M = np.swapaxes(FD, -1, -2) @ M
    P_amb = psis[0] @ psis[1] @ psis[2]
    P_frame = FDt_M @ P_amb @ FD
    psi_f = FDt_M @ psis @ FD
    comm = _max_entry(P_frame @ psi_f - psi_f @ P_frame).max(axis=0)
    return SplittingResult(split=involution_split(P_frame), horizontal_frame=FD,
                           p_frame=P_frame,
                           invariance_residual=_item(_max_entry(P_amb @ FD - FD @ P_frame)),
                           commutation_residual=_item(comm))


def flip_operator(projector_plus: np.ndarray) -> np.ndarray:
    """Reflection Id - 2 P+ across the minus eigenspace."""
    return np.eye(projector_plus.shape[0]) - 2.0 * np.asarray(projector_plus, dtype=float)


def quaternionic_relation_residual(J: Sequence[np.ndarray]) -> tuple[int | None, float]:
    """Best uniform sign eps with J_a J_b = eps J_c cyclically, and its residual.

    Returns (eps, residual) for the better sign, +1 on a tie; eps is None
    when neither sign comes close (mixed-type triples, by design of the flip
    fixture).
    """
    signs = np.array([1, -1])
    worst = np.abs(triple_defects(np.asarray(J, dtype=float), "aligned",
                                  signs[:, None, None, None], None)).max(axis=(1, 2, 3))
    best = int(np.argmin(worst))
    return (None if worst[best] > 0.5 else int(signs[best])), float(worst[best])


# the residuals of ``check_flip_quaternionic``, by name in this order
FLIP_CHECKS = ("unflipped_uniform_cyclic", "flipped_uniform_cyclic", "flipped_squares",
               "flipped_anticommutators", "flipped_pairing_symmetric",
               "flipped_pairing_skewness", "triple_product_commutes")


def check_flip_quaternionic(fixture) -> tuple[dict[str, float], dict]:
    """Sign-flip repair of a mixed-type anticommuting triple: seven residuals
    by name, and the best uniform signs before and after the flip.

    Input (``constructions.FlipFixture``): three M-skew anticommuting complex
    structures J_a on a split space (projector P+ onto the +1 eigenspace of
    J_1 J_2 J_3 supplied), with J_1 J_2 J_3 = +Id on the plus part and -Id on
    the minus part.  Flipping
    with S = Id - 2 P+ must produce J'_a = S J_a that satisfy the uniform
    cyclic relations J'_a J'_b = eps' J'_c on the whole space, are skew for
    the flipped pairing M S, and keep squares and anticommutators; the
    original triple must NOT satisfy any uniform cyclic relation.
    """
    J, M = np.asarray(fixture.J, dtype=float), fixture.metric_matrix
    S = flip_operator(fixture.projector_plus)
    Jp = S @ J
    Mh = M @ S
    eps0, res0 = quaternionic_relation_residual(J)
    eps1, res1 = quaternionic_relation_residual(Jp)
    P = J[0] @ J[1] @ J[2]
    residuals = dict(zip(FLIP_CHECKS, (
        res0, res1, np.abs(triple_defects(Jp, "squares", 0, None)).max(),
        np.abs(triple_defects(Jp, "anticommutators", 0, None)).max(), np.abs(Mh - Mh.T).max(),
        np.abs(np.swapaxes(Jp, -1, -2) @ Mh + Mh @ Jp).max(), np.abs(P @ J - J @ P).max())))
    return residuals, {"flipped_sign": eps1, "unflipped_best_sign": eps0}


# ---------------------------------------------------------------------------
# CR integrability (Nijenhuis-type torsion on the horizontal distribution)
# ---------------------------------------------------------------------------

def nijenhuis_residual(st: StructureTensors, T: np.ndarray):
    """Max torsion of phi on the horizontal distribution at the point (d,)
    (a float) or at each point of the sample (N, d) (an (N,) array) of
    ``st``, from T = ``lc.second_nabla_frame(fld, st.x, st.frame)``.

    For the torsion-free Levi-Civita connection the Nijenhuis tensor is
    pointwise in phi and its covariant derivative (Blair, *Riemannian
    Geometry of Contact and Symplectic Manifolds*, 2nd ed., ch. 6):

      [phi, phi](X, Y) = (nabla_{phi X} phi) Y - (nabla_{phi Y} phi) X
                         + phi (nabla_Y phi) X - phi (nabla_X phi) Y.

    phi is the g-skew part of nabla xi (metrics.StructureTensors) and nabla
    commutes with the g-adjoint, so in the g-orthonormal frame f_i of
    ``st.frame``, nabla_{f_i} phi is the skew part of the matrix
    g(f_a, T(f_i, f_j)) with T = nabla^2 xi.  X and Y run over the horizontal
    frame, ``g_orthonormal_complement`` of xi in ``st.frame``'s coordinates,
    and every contraction is a batched matrix product; the residual is the
    largest g-norm over frame pairs of the horizontal part of [phi, phi] / 4.
    """
    x = st.x
    FtM = np.swapaxes(st.frame, -1, -2) @ st.metric_matrix      # ambient -> frame coordinates
    A = (FtM @ T.reshape(T.shape[:-2] + (-1,))).reshape(T.shape[:-3] + T.shape[-1:] * 3)
    A = np.swapaxes(A, -3, -2)  # [..., i, a, j]: g(f_a, T(f_i, f_j))
    dphi = 0.5 * (A - np.swapaxes(A, -1, -2))                    # dphi[..., i, :, :]: nabla_{f_i} phi
    phi, H = st.phi_frame, g_orthonormal_complement(st.frame, st.metric_matrix, x, [st.xi])
    h = H.shape[-1]
    dphi_H = (dphi @ H[..., None, :, :]).reshape(A.shape[:-2] + (-1,))  # [..., i, (a, q)]
    # [..., p, a, q]: (nabla_{phi H_p} phi) H_q and (nabla_{H_p} phi) H_q
    along_phi, along = ((np.swapaxes(U, -1, -2) @ dphi_H).reshape(A.shape[:-3] + (h, -1, h))
                        for U in (phi @ H, H))
    N = (along_phi - np.swapaxes(along_phi, -3, -1)
         - phi[..., None, :, :] @ (along - np.swapaxes(along, -3, -1)))
    xi_f = matvec(FtM, st.xi)
    N_xi = (xi_f[..., None, None, :] @ N) / rowdot(xi_f, xi_f)[..., None, None, None]
    norms = 0.25 * np.linalg.norm(N - xi_f[..., None, :, None] * N_xi, axis=-2)
    i, j = np.triu_indices(h, k=1)
    res = norms[..., i, j].max(axis=-1, initial=0.0)
    return float(res) if x.ndim == 1 else res


def check_nijenhuis(st: StructureTensors, T: np.ndarray) -> np.ndarray:
    """Horizontal Nijenhuis-type torsion at each point of the sample of ``st``."""
    return nijenhuis_residual(st, T)


# ---------------------------------------------------------------------------
# deformation invariants
# ---------------------------------------------------------------------------

def check_contact_form_preserved(lc_def: LeviCivita, lc_ref: LeviCivita,
                                 fld: VectorField, st: StructureTensors) -> np.ndarray:
    """Metric-dual one-form and its exterior derivative agree between metrics
    at the sample of ``st`` = ``lc_def.structure_at(fld, X)``, for a linear
    field x -> A x.

    The one-forms, ``st.eta`` and lc_ref's, are compared pointwise in
    ambient components.  Their exterior derivatives are compared on the
    Euclidean tangent frame ``orthonormal_tangent_frame``: each side's ambient
    one-form M~(y) A y has d_l (M~ A y)_k = d_l M~_km (A x)_m + (M~ A)_kl, read
    off the FieldJet (``st.jet``, else ``lc_def.jet``, and ``lc_ref.jet``),
    antisymmetrised, which is d(eta) on tangent vectors because pull-back
    commutes with d (M~ A y and M A y differ by a multiple of y, whose d
    vanishes on them).  No connection enters, so the comparison resolves far
    below covariant-derivative noise.
    """
    X = st.x
    res = _worst(st.eta - matvec(lc_ref.metric.matrix_at(X), st.xi))
    D = 0.0                                             # D[n, l, k] = d_l (eta_def - eta_ref)_k
    for jet, sign in ((st.jet or lc_def.jet(fld, X), 1.0), (lc_ref.jet(fld, X), -1.0)):
        D = D + sign * ((jet.dg @ jet.X[:, None, :, None])[..., 0]
                        + np.swapaxes(jet.g @ np.swapaxes(jet.dX, -1, -2), -1, -2))
    E = sphere.orthonormal_tangent_frame(X)
    ext = np.swapaxes(E, -1, -2) @ (D - np.swapaxes(D, -1, -2)) @ E
    return np.maximum(res, _worst(ext))


def check_transverse_derivative(st: StructureTensors, j0: np.ndarray) -> np.ndarray:
    """Covariant derivative along the transverse distribution is the reference
    rotation: nabla_v (field) = J0 v for every v Euclidean-orthogonal to both
    the position and the reference circle direction J0 x, read from
    ``st.nabla_endo`` (``st`` = ``lc.structure_at(fld, X)``).
    """
    X = st.x
    _, _, vt = np.linalg.svd(np.stack([X, matvec(j0, X)], axis=1))
    V = np.swapaxes(vt[:, 2:], -1, -2)
    return _worst(st.nabla_endo @ V - j0 @ V)
