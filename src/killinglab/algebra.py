"""Isometry algebras of sphere metrics and their spectral splitting.

All Killing fields handled here are linear: x -> A x with A skew, so an
isometry algebra is a list of skew ambient matrices closed under the field
bracket.  The field bracket of x -> A x and x -> B x is x -> (BA - AB) x
(the sign follows the flow commutator and is frozen by a finite-difference
conformance test).

An algebra factors its basis once, by one QR of the trace-form coordinates
(sqrt 2 times the strict upper triangle).  Membership, closure and the
decomposition project onto the trace-orthonormal basis Q; R serves only
coordinates in the given basis (``ad_matrix``) and the Killing gram R^T R.

The main operation is ``standard_decomposition``: split an algebra into the
kernel and the rotation-rate eigenblocks of the adjoint action of a chosen
unit Killing generator, using eigenvalue clustering of the squared adjoint
in the trace-form orthonormal basis Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLUSTER_TOL = 1e-8   # eigenvalues closer than this fall into one cluster
GAP_TOL = 1e-6       # distinct clusters must be separated by more than this
SKEW_TOL = 1e-10
CLOSURE_TOL = 1e-9


class DegenerateClusterError(RuntimeError):
    """Adjacent adjoint-square eigenvalue clusters are too close to split."""


def field_bracket(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Generator of the bracket of the fields x -> A x and x -> B x."""
    return B @ A - A @ B


def killing_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Trace pairing -tr(AB); positive definite on skew matrices."""
    return -float(np.trace(A @ B))


def so_basis(d: int) -> list[np.ndarray]:
    """Elementary rotation generators E_ij (i < j) spanning all skew matrices."""
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d))
            E[i, j] = 1.0
            E[j, i] = -1.0
            basis.append(E)
    return basis


class IsometryAlgebra:
    """Lie algebra of linear Killing generators, closed under the field bracket.

    The basis is one read-only (n, d, d) stack with the one factorisation
    S = Q R (diag R > 0) of its trace-form coordinates; ``_project`` works
    in Q, and only basis coordinates need R."""

    def __init__(self, basis, name: str = "", validate: bool = True,
                 closure_tol: float = CLOSURE_TOL):
        mats = [np.asarray(b, dtype=float) for b in basis]
        if not mats:
            raise ValueError("empty basis")
        d = mats[0].shape[0]
        if any(b.shape != (d, d) for b in mats):
            raise ValueError("basis matrices have mismatched shapes")
        stack = np.array(mats)
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        if np.any(np.abs(stack + stack.swapaxes(1, 2)).max(axis=(1, 2)) > SKEW_TOL * scale):
            raise ValueError("basis matrices must be skew-symmetric")
        stack.setflags(write=False)
        self._stack = stack
        self.basis = list(stack)
        self.name = name
        self.ambient_dim = d
        self._upper = np.triu_indices(d, 1)
        # |R_kk| >= the least singular value of S, and QR does not square the
        # condition number as a Cholesky of the gram would.
        q, r = np.linalg.qr(self._skew_coords(stack).T)
        if len(mats) > d * (d - 1) // 2 or np.abs(np.diag(r)).min() <= 1e-10:
            raise ValueError("basis matrices are linearly dependent")
        signs = np.sign(np.diag(r))
        self._q, self._r = q * signs, r * signs[:, None]
        if validate:
            self.validate_closure(closure_tol)

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
        out = np.zeros(coords.shape[:-1] + self._stack.shape[1:])
        out[..., self._upper[0], self._upper[1]] = half
        out[..., self._upper[1], self._upper[0]] = -half
        return out

    def _project(self, targets, tol: float, refusal: str) -> np.ndarray:
        """Coordinates y = Q^T s(A) (n, k) of a stack (k, d, d) of matrices A
        in the trace-orthonormal basis, one column each; raises ``refusal``
        unless every full matrix, not only its upper triangle, is rebuilt as
        the skew matrix with coordinates Q y to ``tol * max(1, |A|max)``."""
        targets = np.asarray(targets, dtype=float)
        if targets.shape[1:] != self._stack.shape[1:]:
            raise ValueError(f"{refusal} (shape {targets.shape[1:]})")
        y = self._q.T @ self._skew_coords(targets).T
        resid = self._unskew((self._q @ y).T)
        resid -= targets
        resid = np.abs(resid, out=resid).max(axis=(1, 2))
        if np.any(resid > tol * np.maximum(1.0, np.abs(targets).max(axis=(1, 2)))):
            raise ValueError(f"{refusal} (residual {float(resid.max()):.3e})")
        return y

    def contains(self, A: np.ndarray, tol: float = 1e-8) -> bool:
        try:
            self._project([A], tol, "matrix lies outside the algebra")
            return True
        except ValueError:
            return False

    def validate_closure(self, tol: float = CLOSURE_TOL) -> None:
        """Brackets of each basis element with all later ones, projected at once."""
        for i, Bi in enumerate(self.basis[:-1]):
            self._project(field_bracket(Bi, self._stack[i + 1:]), tol,
                          "basis is not closed under the field bracket")

    def ad_matrix(self, X: np.ndarray) -> np.ndarray:
        """Matrix of Y -> [X, Y] (field bracket) in the algebra basis; raises
        if a bracket leaves the algebra."""
        return np.linalg.solve(self._r, self._project(field_bracket(X, self._stack), 1e-8,
                                                      "bracket lies outside the algebra"))

    def killing_gram(self) -> np.ndarray:
        """Gram matrix of the trace pairing -tr(AB) on the basis: S^T S = R^T R."""
        return self._r.T @ self._r


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Splitting of an algebra along the adjoint action of a generator.

    ``rates[k]`` is the rotation rate (>= 0, zero block first) and
    ``blocks[k]`` the matching tuple of generators, eigenvectors of the
    squared adjoint taken in the trace-orthonormal basis Q, so each block is
    trace-orthonormal.  ``s_eigenvalues`` are the raw eigenvalues of the
    squared adjoint.
    """

    xi: np.ndarray
    rates: tuple[float, ...]
    blocks: tuple[tuple[np.ndarray, ...], ...]
    s_eigenvalues: np.ndarray

    @property
    def zero_block_dim(self) -> int:
        for lam, blk in zip(self.rates, self.blocks):
            if lam == 0.0:
                return len(blk)
        return 0

    def summary(self) -> list[tuple[float, int]]:
        """(rate rounded to 9 decimals, block dimension) per block."""
        return [(round(lam, 9), len(blk)) for lam, blk in zip(self.rates, self.blocks)]


def standard_decomposition(algebra: IsometryAlgebra, xi: np.ndarray,
                           cluster_tol: float = CLUSTER_TOL,
                           gap_tol: float = GAP_TOL) -> Decomposition:
    """Split ``algebra`` into eigenblocks of the squared adjoint of ``xi``.

    The adjoint of a Killing generator is skew for the trace pairing, so its
    square is symmetric nonpositive; the algebra splits into the kernel
    (commutant of xi) plus blocks on which the square is -rate^2.  Eigenvalues
    are clustered with ``cluster_tol``; if two clusters sit closer than
    ``gap_tol`` the split is numerically meaningless and
    DegenerateClusterError is raised.
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
    clusters: list[list[int]] = [[0]]
    for k in range(1, len(vals)):
        if vals[k] - vals[clusters[-1][-1]] <= cluster_tol * scale:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    means = [float(np.mean(vals[idx])) for idx in clusters]
    for m1, m2 in zip(means, means[1:]):
        if m2 - m1 <= gap_tol * scale:
            raise DegenerateClusterError(
                f"adjoint-square eigenvalue clusters at {m1:.6e} and {m2:.6e} are "
                f"closer than the resolvable gap {gap_tol:.1e} * {scale:.3g}")

    gens = algebra._unskew((algebra._q @ vecs).T)
    rates = [0.0 if -m <= gap_tol * scale else float(np.sqrt(-m)) for m in means]
    blocks = sorted(zip(rates, clusters))
    return Decomposition(xi=xi, rates=tuple(rate for rate, _ in blocks),
                         blocks=tuple(tuple(gens[k] for k in idx) for _, idx in blocks),
                         s_eigenvalues=vals)


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
    xi_mat = xi_field.matrix
    if xi_mat is None:
        raise ValueError("xi_field must be linear to evaluate bracket identities")
    mats = np.asarray(mats, dtype=float)
    mats = mats.reshape(-1, *mats.shape[-2:])
    brackets = field_bracket(xi_mat, mats)
    xs = st.x
    a = np.einsum("bde,ne->nbd", mats, xs)          # (N, b, d): one row per field
    Ft = np.swapaxes(st.frame, -1, -2)
    out = {"orthogonality": float(np.abs(a @ (st.metric_matrix @ st.xi[..., None])).max())}
    w = a @ st.dxi @ st.frame @ Ft
    out["bracket_identity"] = float(np.linalg.norm(
        np.einsum("bde,ne->nbd", brackets, xs) + w, axis=-1).max())
    if rate is not None:
        # raised two-form = 2 phi on the g-orthonormal frame
        af = a @ np.swapaxes(st.metric_matrix, -1, -2) @ st.frame
        phi_t = np.swapaxes(st.phi_frame, -1, -2)
        out["eigenvalue_identity"] = float(np.abs(4.0 * (af @ phi_t @ phi_t)
                                                  + rate**2 * af).max())
    return out


def centralizer_check(alg: "IsometryAlgebra", mats, member_tol: float = 1e-8,
                      central_tol: float = 1e-10) -> dict:
    """Are the given generators central elements of the algebra?

    Returns the max commutator entry against the whole basis and whether each
    generator lies in the algebra's span, plus the combined boolean verdict.
    """
    worst = max((float(np.abs(field_bracket(m, alg._stack)).max()) for m in mats),
                default=0.0)
    members = [alg.contains(m, tol=member_tol) for m in mats]
    return {
        "max_commutator": worst,
        "central": worst <= central_tol,
        "members": members,
        "ok": worst <= central_tol and all(members),
    }
