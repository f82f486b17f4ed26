"""Isometry algebras of sphere metrics and their spectral splitting.

All Killing fields handled here are linear: x -> A x with A skew, so an
isometry algebra is a (G, d, d) stack of skew ambient generators closed under
the field bracket.  The field bracket of x -> A x and x -> B x is
x -> (BA - AB) x (the sign follows the flow commutator and is frozen by a
finite-difference conformance test).

An algebra factors its basis once, by one QR of the trace-form coordinates
(sqrt 2 times the strict upper triangle).  Membership, closure and the
decomposition project onto the trace-orthonormal basis Q; R serves only
coordinates in the given basis (``ad_matrix``) and the Killing gram R^T R.

The main operation is ``standard_decomposition``: split an algebra into the
kernel and the rotation-rate eigenblocks of the adjoint action of a chosen
unit Killing generator, using eigenvalue clustering of the squared adjoint
in the trace-form orthonormal basis Q: the sorted eigenvalues split wherever
a consecutive gap exceeds ``CLUSTER_TOL * scale``, one (b, d, d) stack each.

The tolerances are module constants: CLUSTER_TOL and GAP_TOL for the
clustering, CLOSURE_TOL for the bracket closure of a basis, MEMBER_TOL for
membership (``contains``, ``centralizer_check``) and CENTRAL_TOL for a
central commutator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLUSTER_TOL = 1e-8   # eigenvalues closer than this fall into one cluster
GAP_TOL = 1e-6       # distinct clusters must be separated by more than this
SKEW_TOL = 1e-10
CLOSURE_TOL = 1e-9
MEMBER_TOL = 1e-8    # relative rebuild defect of a member of the algebra's span
CENTRAL_TOL = 1e-10  # largest commutator entry of a central element


class DegenerateClusterError(RuntimeError):
    """Adjacent adjoint-square eigenvalue clusters are too close to split."""


def field_bracket(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Generator of the bracket of the fields x -> A x and x -> B x."""
    return B @ A - A @ B


def killing_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Trace pairing -tr(AB); positive definite on skew matrices."""
    return -float(np.trace(A @ B))


def so_basis(d: int) -> np.ndarray:
    """One read-only (d(d-1)/2, d, d) stack of the rotation generators E_ij
    (i < j, row-major; +1 at (i, j), -1 at (j, i)) spanning all skew matrices."""
    i, j = np.triu_indices(d, 1)
    k = np.arange(len(i))
    basis = np.zeros((len(i), d, d))
    basis[k, i, j], basis[k, j, i] = 1.0, -1.0
    basis.setflags(write=False)
    return basis


class IsometryAlgebra:
    """Lie algebra of linear Killing generators, closed under the field bracket.

    ``basis`` is the given (G, d, d) stack of generators itself, as a
    read-only view, with the one factorisation S = Q R (diag R > 0) of its
    trace-form coordinates; ``_project`` works in Q, and only basis
    coordinates need R."""

    def __init__(self, basis, validate: bool = True):
        try:  # a view, so the read-only flag below is its own
            stack = np.asarray(basis, dtype=float).view()
        except ValueError:  # a ragged sequence of matrices
            raise ValueError("basis matrices have mismatched shapes") from None
        if stack.size == 0:
            raise ValueError("empty basis")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("basis matrices have mismatched shapes")
        d = stack.shape[1]
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        if np.any(np.abs(stack + stack.swapaxes(1, 2)).max(axis=(1, 2)) > SKEW_TOL * scale):
            raise ValueError("basis matrices must be skew-symmetric")
        stack.setflags(write=False)
        self.basis = stack
        self._upper = np.triu_indices(d, 1)
        # |R_kk| >= the least singular value of S, and QR does not square the
        # condition number as a Cholesky of the gram would.
        q, r = np.linalg.qr(self._skew_coords(stack).T)
        if len(stack) > d * (d - 1) // 2 or np.abs(np.diag(r)).min() <= 1e-10:
            raise ValueError("basis matrices are linearly dependent")
        signs = np.sign(np.diag(r))
        self._q, self._r = q * signs, r * signs[:, None]
        if validate:
            self.validate_closure()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _skew_coords(self, mats: np.ndarray) -> np.ndarray:
        """sqrt 2 times the strict upper triangles of a stack (..., d, d): on
        skew matrices their Euclidean product is ``killing_inner``."""
        return np.sqrt(2.0) * mats[..., self._upper[0], self._upper[1]]

    def _unskew(self, coords: np.ndarray) -> np.ndarray:
        """Skew matrices (..., d, d) with the given ``_skew_coords`` (..., m)."""
        half = coords / np.sqrt(2.0)
        out = np.zeros(coords.shape[:-1] + self.basis.shape[1:])
        out[..., self._upper[0], self._upper[1]] = half
        out[..., self._upper[1], self._upper[0]] = -half
        return out

    def _project(self, targets, tol: float, refusal: str | None) -> np.ndarray:
        """Coordinates y = Q^T s(A) (n, k) of a stack (k, d, d) of matrices A
        in the trace-orthonormal basis, one column each; raises ``refusal``
        unless every full matrix, not only its upper triangle, is rebuilt as
        the skew matrix with coordinates Q y to ``tol * max(1, |A|max)``.
        With no refusal it returns instead the (k,) mask of the rebuilt A."""
        targets = np.asarray(targets, dtype=float)
        if targets.shape[1:] != self.basis.shape[1:]:
            raise ValueError(f"{refusal} (shape {targets.shape[1:]})")
        y = self._q.T @ self._skew_coords(targets).T
        resid = self._unskew((self._q @ y).T)
        resid -= targets
        resid = np.abs(resid, out=resid).max(axis=(1, 2))
        bad = resid > tol * np.maximum(1.0, np.abs(targets).max(axis=(1, 2)))
        if refusal is None:
            return ~bad
        if np.any(bad):
            raise ValueError(f"{refusal} (residual {float(resid.max()):.3e})")
        return y

    def contains(self, A: np.ndarray) -> bool:
        A = np.asarray(A, dtype=float)
        return A.shape == self.basis.shape[1:] and bool(self._project([A], MEMBER_TOL, None)[0])

    def validate_closure(self) -> None:
        """Brackets of each basis element with all later ones, projected at once."""
        for i, Bi in enumerate(self.basis[:-1]):
            self._project(field_bracket(Bi, self.basis[i + 1:]), CLOSURE_TOL,
                          "basis is not closed under the field bracket")

    def ad_matrix(self, X: np.ndarray) -> np.ndarray:
        """Matrix of Y -> [X, Y] (field bracket) in the algebra basis; raises
        if a bracket leaves the algebra."""
        return np.linalg.solve(self._r, self._project(field_bracket(X, self.basis), 1e-8,
                                                      "bracket lies outside the algebra"))

    def killing_gram(self) -> np.ndarray:
        """Gram matrix of the trace pairing -tr(AB) on the basis: S^T S = R^T R."""
        return self._r.T @ self._r


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Splitting of an algebra along the adjoint action of a generator.

    ``rates[k]`` is the rotation rate (>= 0, zero block first) and
    ``blocks[k]`` the matching read-only (b, d, d) stack of generators,
    eigenvectors of the squared adjoint taken in the trace-orthonormal basis
    Q, so each block is trace-orthonormal: slices of one stack, cut between
    clusters of ``s_eigenvalues``, the raw eigenvalues of the squared adjoint.
    """

    xi: np.ndarray
    rates: tuple[float, ...]
    blocks: tuple[np.ndarray, ...]
    s_eigenvalues: np.ndarray

    @property
    def zero_block_dim(self) -> int:
        return next((len(blk) for lam, blk in zip(self.rates, self.blocks) if lam == 0.0), 0)

    def summary(self) -> list[tuple[float, int]]:
        """(rate rounded to 9 decimals, block dimension) per block."""
        return [(round(lam, 9), len(blk)) for lam, blk in zip(self.rates, self.blocks)]


def _cluster_cuts(vals: np.ndarray, tol: float) -> np.ndarray:
    """``np.split`` indices of ascending vals: each value over tol above the last."""
    return np.flatnonzero(np.diff(vals) > tol) + 1


def standard_decomposition(algebra: IsometryAlgebra, xi: np.ndarray) -> Decomposition:
    """Split ``algebra`` into eigenblocks of the squared adjoint of ``xi``.

    The adjoint of a Killing generator is skew for the trace pairing, so its
    square is symmetric nonpositive; the algebra splits into the kernel
    (commutant of xi) plus blocks on which the square is -rate^2.  Sorted
    eigenvalues split wherever a consecutive gap exceeds ``CLUSTER_TOL *
    scale``; if two cluster means sit within ``GAP_TOL * scale`` the split is
    numerically meaningless and DegenerateClusterError is raised.
    """
    xi = np.asarray(xi, dtype=float)
    if not algebra.contains(xi):
        raise ValueError("xi must belong to the algebra")
    # ad(xi) in the trace-orthonormal basis E_j = unskew(q_j): column j is
    # Q^T s([xi, E_j]).  The E stack is freed before the projection.
    K_on = algebra._project(field_bracket(xi, algebra._unskew(algebra._q.T)), 1e-8,
                            "bracket lies outside the algebra")
    skew_resid = float(np.abs(K_on + K_on.T).max())
    if skew_resid > 1e-8 * max(1.0, float(np.abs(K_on).max())):
        raise ValueError(f"adjoint of xi is not skew in the trace pairing "
                         f"(residual {skew_resid:.3e}); xi is not a Killing generator "
                         f"of this algebra")
    S = K_on @ K_on
    S = 0.5 * (S + S.T)
    vals, vecs = np.linalg.eigh(S)  # ascending: most negative first

    scale = max(1.0, float(np.abs(vals).max()))
    cuts = _cluster_cuts(vals, CLUSTER_TOL * scale)
    means = [float(c.mean()) for c in np.split(vals, cuts)]
    for m1, m2 in zip(means, means[1:]):
        if m2 - m1 <= GAP_TOL * scale:
            raise DegenerateClusterError(
                f"adjoint-square eigenvalue clusters at {m1:.6e} and {m2:.6e} are "
                f"closer than the resolvable gap {GAP_TOL:.1e} * {scale:.3g}")

    gens = algebra._unskew((algebra._q @ vecs).T)
    gens.setflags(write=False)
    rates = [0.0 if -m <= GAP_TOL * scale else float(np.sqrt(-m)) for m in means]
    order, blocks = np.argsort(rates, kind="stable"), np.split(gens, cuts)
    return Decomposition(xi=xi, rates=tuple(rates[k] for k in order),
                         blocks=tuple(blocks[k] for k in order), s_eigenvalues=vals)


def eigenfield_residuals(xi_field, mats, st, rate: float | None = None) -> dict[str, float]:
    """Pointwise identities satisfied by nonzero-rate eigenblock generators.

    For A in a nonzero-rate block of the decomposition along xi, the field
    x -> A x is orthogonal to xi everywhere, and the field bracket with xi
    cancels the metric dual of contracting A x into the two-form of xi's dual
    one-form.  ``mats`` is one generator (d, d) or a block (b, d, d); the
    structure tensors ``st`` = ``lc.structure_at(xi_field, X)`` cover the
    sample X and are shared by the whole block.  Returns max residuals over
    generators and samples {"orthogonality", "bracket_identity"}; when the
    block rate is given, also "eigenvalue_identity": the square of the raised
    two-form applied to A x equals -(rate^2) A x.
    """
    return {key: float(r.max()) for key, r in eigenfield_rows(xi_field, mats, st, rate).items()}


def eigenfield_rows(xi_field, mats, st, rate: float | None = None) -> dict[str, np.ndarray]:
    """``eigenfield_residuals`` at each sample point, (N,) arrays of the max
    over the block, each per-point factor contracted before the block axis."""
    xi_mat = xi_field.matrix
    if xi_mat is None:
        raise ValueError("xi_field must be linear to evaluate bracket identities")
    mats = np.asarray(mats, dtype=float)
    mats = mats.reshape(-1, *mats.shape[-2:])
    # one matmul over the flattened stack: A_k x_n, then [xi, A_k] x_n, each (N, k, d)
    ab = st.x @ np.concatenate([mats, field_bracket(xi_mat, mats)]).reshape(-1, mats.shape[-1]).T
    a, brackets = np.swapaxes(ab.reshape(len(st.x), 2, len(mats), -1), 0, 1)
    F, Ft = st.frame, np.swapaxes(st.frame, -1, -2)
    out = {"orthogonality": np.abs(a @ st.eta[..., None]).max(axis=(1, 2))}
    out["bracket_identity"] = np.linalg.norm(brackets + a @ (st.dxi @ F @ Ft),
                                             axis=-1).max(axis=1)
    if rate is not None:
        # raised two-form = 2 phi on the g-orthonormal frame
        MF = np.swapaxes(st.metric_matrix, -1, -2) @ F
        phi_t = np.swapaxes(st.phi_frame, -1, -2)
        out["eigenvalue_identity"] = np.abs(4.0 * (a @ (MF @ phi_t @ phi_t))
                                            + rate**2 * (a @ MF)).max(axis=(1, 2))
    return out


def centralizer_check(alg: "IsometryAlgebra", mats) -> dict:
    """Are the given generators, a stack (k, d, d), central elements of the algebra?

    Returns the max commutator entry against the whole basis and whether each
    generator lies in the algebra's span, plus the combined boolean verdict.
    """
    mats = np.asarray(mats, dtype=float)
    worst = float(np.abs(field_bracket(mats[:, None], alg.basis)).max(initial=0.0))
    members = alg._project(mats, MEMBER_TOL, None).tolist()
    return {
        "max_commutator": worst,
        "central": worst <= CENTRAL_TOL,
        "members": members,
        "ok": worst <= CENTRAL_TOL and all(members),
    }
