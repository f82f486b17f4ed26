"""Isometry algebras of sphere metrics and their spectral splitting.

All Killing fields handled here are linear: x -> A x with A skew, so an
isometry algebra is a list of skew ambient matrices closed under the field
bracket.  The field bracket of x -> A x and x -> B x is x -> (BA - AB) x
(the sign follows the flow commutator and is frozen by a finite-difference
conformance test).

The main operation is ``standard_decomposition``: split an algebra into the
kernel and the rotation-rate eigenblocks of the adjoint action of a chosen
unit Killing generator, using eigenvalue clustering of the squared adjoint
in a trace-form orthonormal basis.
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
    """Lie algebra of linear Killing generators, closed under the field bracket."""

    def __init__(self, basis, name: str = "", validate: bool = True,
                 closure_tol: float = CLOSURE_TOL):
        mats = [np.array(b, dtype=float) for b in basis]
        if not mats:
            raise ValueError("empty basis")
        d = mats[0].shape[0]
        for b in mats:
            if b.shape != (d, d):
                raise ValueError("basis matrices have mismatched shapes")
            scale = max(1.0, float(np.abs(b).max()))
            if np.abs(b + b.T).max() > SKEW_TOL * scale:
                raise ValueError("basis matrices must be skew-symmetric")
            b.setflags(write=False)
        self.basis = mats
        self.name = name
        self.ambient_dim = d
        self._flat = np.stack([b.ravel() for b in mats], axis=1)  # (d*d, n)
        # One SVD gives the rank (singular values above 1e-10, as
        # matrix_rank(tol=1e-10)) and the pseudo-inverse (cutoff
        # 1e-15 * s.max(), as the default of np.linalg.pinv).
        u, s, vt = np.linalg.svd(self._flat, full_matrices=False)
        if int(np.count_nonzero(s > 1e-10)) != len(mats):
            raise ValueError("basis matrices are linearly dependent")
        large = s > 1e-15 * s.max()
        s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
        self._pinv = vt.T @ (s_inv[:, None] * u.T)
        if validate:
            self.validate_closure(closure_tol)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, A: np.ndarray, tol: float | None = 1e-8) -> np.ndarray:
        """Coefficients of A in the basis; raises if A is not in the span."""
        c = self._pinv @ np.asarray(A, dtype=float).ravel()
        if tol is not None:
            resid = float(np.abs(self._flat @ c - np.asarray(A).ravel()).max())
            scale = max(1.0, float(np.abs(A).max()))
            if resid > tol * scale:
                raise ValueError(f"matrix lies outside the algebra (residual {resid:.3e})")
        return c

    def contains(self, A: np.ndarray, tol: float = 1e-8) -> bool:
        try:
            self.coords(A, tol=tol)
            return True
        except ValueError:
            return False

    def validate_closure(self, tol: float = CLOSURE_TOL) -> None:
        for i, Bi in enumerate(self.basis):
            for Bj in self.basis[i + 1:]:
                if not self.contains(field_bracket(Bi, Bj), tol=tol):
                    raise ValueError("basis is not closed under the field bracket")

    def ad_matrix(self, X: np.ndarray) -> np.ndarray:
        """Matrix of Y -> [X, Y] (field bracket) in the algebra basis; raises
        if a bracket leaves the algebra."""
        d, n = self.ambient_dim, self.dim
        brackets = field_bracket(X, np.stack(self.basis)).reshape(n, d * d).T
        K = self._pinv @ brackets
        resid = np.abs(self._flat @ K - brackets).max(axis=0)
        scale = np.maximum(1.0, np.abs(brackets).max(axis=0))
        if np.any(resid > 1e-8 * scale):
            raise ValueError(f"bracket lies outside the algebra "
                             f"(residual {float(resid.max()):.3e})")
        return K

    def killing_gram(self) -> np.ndarray:
        """Gram matrix of the trace pairing -tr(AB) on the basis."""
        d, n = self.ambient_dim, self.dim
        flat_t = self._flat.reshape(d, d, n).transpose(1, 0, 2).reshape(d * d, n)
        return -(self._flat.T @ flat_t)

    def element(self, coeffs) -> np.ndarray:
        """Matrix with the given basis coefficients; a stack (k, n) of
        coefficient rows gives a stack (k, d, d) of matrices."""
        c = np.asarray(coeffs, dtype=float)
        d = self.ambient_dim
        return (c @ self._flat.T).reshape(*c.shape[:-1], d, d)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Splitting of an algebra along the adjoint action of a generator.

    ``rates[k]`` is the rotation rate (>= 0, zero block first) and
    ``blocks[k]`` the matching tuple of generators; ``coeffs[k]`` holds their
    coordinates in the source algebra's basis, columns per generator.
    ``s_eigenvalues`` are the raw eigenvalues of the squared adjoint.
    """

    xi: np.ndarray
    rates: tuple[float, ...]
    blocks: tuple[tuple[np.ndarray, ...], ...]
    coeffs: tuple[np.ndarray, ...]
    s_eigenvalues: np.ndarray

    @property
    def zero_block_dim(self) -> int:
        for lam, blk in zip(self.rates, self.blocks):
            if lam == 0.0:
                return len(blk)
        return 0

    def summary(self) -> list[tuple[float, int]]:
        return [(lam, len(blk)) for lam, blk in zip(self.rates, self.blocks)]


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
    G = algebra.killing_gram()
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ValueError("trace pairing is not positive definite on this basis") from exc
    Li = np.linalg.inv(L)
    K = algebra.ad_matrix(xi)
    K_on = L.T @ K @ Li.T
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

    entries = []  # (rate, coeff matrix, generators)
    for mean, idx in zip(means, clusters):
        rate = 0.0 if -mean <= gap_tol * scale else float(np.sqrt(-mean))
        C = Li.T @ vecs[:, idx]  # original-basis coordinates, one column each
        gens = tuple(algebra.element(C.T))
        entries.append((rate, C, gens))
    entries.sort(key=lambda e: e[0])
    return Decomposition(
        xi=xi,
        rates=tuple(e[0] for e in entries),
        blocks=tuple(e[2] for e in entries),
        coeffs=tuple(e[1] for e in entries),
        s_eigenvalues=vals,
    )


def eigenfield_residuals(lc, xi_field, mats, points,
                         rate: float | None = None) -> dict[str, float]:
    """Pointwise identities satisfied by nonzero-rate eigenblock generators.

    For A in a nonzero-rate block of the decomposition along xi, the field
    x -> A x is orthogonal to xi everywhere, and the field bracket with xi
    cancels the metric dual of contracting A x into the two-form of xi's dual
    one-form.  ``mats`` is one generator (d, d) or a block (b, d, d); the
    structure tensors are computed in one call over the whole sample and
    shared by the whole block.  Returns max residuals over generators and samples
    {"orthogonality", "bracket_identity"}; when the block rate is given, also
    "eigenvalue_identity": the square of the raised two-form applied to A x
    equals -(rate^2) A x.
    """
    xi_mat = xi_field.matrix
    if xi_mat is None:
        raise ValueError("xi_field must be linear to evaluate bracket identities")
    mats = np.asarray(mats, dtype=float)
    mats = mats.reshape(-1, *mats.shape[-2:])
    brackets = field_bracket(xi_mat, mats)
    xs = np.asarray(points, dtype=float)
    st = lc.structure_at(xi_field, xs)
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
    worst = 0.0
    members = []
    for m in mats:
        for b in alg.basis:
            worst = max(worst, float(np.abs(field_bracket(m, b)).max()))
        members.append(alg.contains(m, tol=member_tol))
    return {
        "max_commutator": worst,
        "central": worst <= central_tol,
        "members": members,
        "ok": worst <= central_tol and all(members),
    }
