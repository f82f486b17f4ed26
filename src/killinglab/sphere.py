"""Seeded samples, stereographic charts and tangent frames on odd spheres.

Everything lives in ambient coordinates: a point of S^(2n+1) is a unit vector
in R^(2n+2), a sample of N points one (N, d) array, and the finite
differences of ``metrics`` step along the ambient axes.  Stereographic charts
(projection from a pole, with closed-form inverse and Jacobian) are public API
and serve as an independent discretisation to test against; samples keep
clear of the default atlas's poles.  The Euclidean tangent frame is
Gram-Schmidt in closed form and takes one point (d,) or a stack of points (N, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

UNIT_TOL = 1e-12        # |x| - 1 allowed on construction
POLE_EXCLUSION = 1e-6   # chart refuses points this close to its pole
DEFAULT_POLE_MARGIN = 1e-3


class ChartDomainError(ValueError):
    """Raised when a point is too close to the chart pole to be projected."""


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """Unit vector in R^(2n+2); ambient dimension must be even and >= 4."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _readonly(self.coords))
        if self.coords.ndim != 1:
            raise ValueError("coords must be a flat vector")
        d = self.coords.shape[0]
        if d % 2 != 0 or d < 4:
            raise ValueError(f"ambient dimension must be even and >= 4, got {d}")
        r = float(np.linalg.norm(self.coords))
        if abs(r - 1.0) > UNIT_TOL:
            raise ValueError(f"|coords| = {r} is not 1 within {UNIT_TOL}")

    def __array__(self, dtype=None, copy=None):
        """The coordinates, so ``np.asarray`` takes a point or a sequence of them."""
        return np.array(self.coords, dtype=dtype, copy=copy)

    @property
    def dim(self) -> int:
        """Ambient dimension 2n+2."""
        return self.coords.shape[0]



def unit_sample(owner: str, points, ndims: tuple[int, ...]) -> np.ndarray:
    """``points`` (an array, a SpherePoint or a sequence of them) as a float
    array, refused in the name of ``owner`` unless it is non-empty, has one of
    the ``ndims`` (1: one point (d,), 2: a sample (N, d)) and lies on the unit
    sphere (a non-finite point does not)."""
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        raise ValueError(f"{owner} got no samples to evaluate")
    if X.ndim not in ndims:
        shapes = " or ".join(("one point (d,)", "an (N, d) sample")[k - 1] for k in ndims)
        raise ValueError(f"{owner} needs {shapes}, got shape {X.shape}")
    off = float(np.abs(np.linalg.norm(X, axis=-1) - 1.0).max())
    if not off <= UNIT_TOL:  # also refuses NaN
        raise ValueError(f"{owner} got a sample off the unit sphere: ||x| - 1| = {off:.3e}")
    return X


def tangent_seeds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seeds of the tangent space at x (d,) or at each row of x (N, d): with
    the axis most parallel to x (argmax |x_i|) dropped, the other axes
    projected to x^perp, e_i - x_i x, in index order, as (..., d, d-1) columns;
    and the kept coordinates x_i, (..., d-1)."""
    d = x.shape[-1]
    col = np.arange(d - 1)
    idx = col + (col >= np.argmax(np.abs(x), axis=-1)[..., None])  # kept axes
    v = np.take_along_axis(x, idx, axis=-1)
    return np.swapaxes(np.eye(d)[idx], -1, -2) - x[..., :, None] * v[..., None, :], v


def orthonormal_tangent_frame(x: np.ndarray) -> np.ndarray:
    """Euclidean orthonormal basis of x^perp, columns of a (d, d-1) array.

    Gram-Schmidt of the ``tangent_seeds`` t_j in closed form: their Gram
    matrix is Id - v v^T, v the kept coordinates of x, so with c_j = 1 -
    sum_{i<=j} v_i^2 >= x_m^2 >= 1/d (x_m the dropped coordinate) column j is
    (t_j + v_j / c_{j-1} sum_{i<j} v_i t_i) sqrt(c_{j-1} / c_j).  A stack
    (N, d) of points gives (N, d, d-1).
    """
    T, v = tangent_seeds(x)
    c = 1.0 - np.cumsum(v * v, axis=-1)
    c_prev = c + v * v
    S = np.zeros_like(T)  # S[..., j] = sum_{i<j} v_i t_i
    np.cumsum(T[..., :-1] * v[..., None, :-1], axis=-1, out=S[..., 1:])
    return (T + (v / c_prev)[..., None, :] * S) * np.sqrt(c_prev / c)[..., None, :]


@dataclass(frozen=True, eq=False)
class Chart:
    """Stereographic projection from a pole onto the pole's orthocomplement."""

    pole: SpherePoint
    basis: np.ndarray  # (d, d-1) orthonormal basis of pole^perp

    @staticmethod
    def from_pole(pole: SpherePoint) -> "Chart":
        return Chart(pole, _readonly(orthonormal_tangent_frame(pole.coords)))

    @property
    def dim(self) -> int:
        return self.pole.dim

    # Every map below takes one chart point u of shape (m,) = (d-1,) or a
    # stack (..., m), giving the per-row results for a stack.

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Chart coordinates of a point (d,), or of a stack (..., d) of ambient points."""
        x = np.asarray(x, dtype=float)
        q = self.pole.coords
        if np.any(np.linalg.norm(x - q, axis=-1) <= POLE_EXCLUSION):
            raise ChartDomainError("point within pole exclusion radius of the chart")
        denom = 1.0 - rowdot(x, q)
        return matvec(self.basis.T, x) / denom[..., None]

    def point_coords(self, u: np.ndarray) -> np.ndarray:
        """Chart inverse as a raw ambient array (exactly unit up to rounding)."""
        u = np.asarray(u, dtype=float)
        s = (rowdot(u, u) + 1.0)[..., None]
        return ((s - 2.0) * self.pole.coords + 2.0 * matvec(self.basis, u)) / s

    def conformal_factor(self, u: np.ndarray) -> np.ndarray:
        """The chart inverse is conformal with J^T J = lam^2 I, lam = 2/(1+|u|^2)."""
        u = np.asarray(u, dtype=float)
        return 2.0 / (1.0 + rowdot(u, u))

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """d(point)/du, shape (..., d, d-1); closed form, no finite differences."""
        u = np.asarray(u, dtype=float)
        s = (rowdot(u, u) + 1.0)[..., None, None]
        core = self.pole.coords - matvec(self.basis, u)  # shape (..., d)
        return (4.0 / s**2) * (core[..., :, None] * u[..., None, :]) + (2.0 / s) * self.basis

    def to_chart_vector(self, u: np.ndarray, ambient: np.ndarray) -> np.ndarray:
        """Chart components of a tangent vector at point(u); exact by conformality.

        ``ambient`` (..., d) broadcasts against ``u`` (..., m).
        """
        lam2 = self.conformal_factor(u) ** 2
        J = self.jacobian(u)
        return matvec(np.swapaxes(J, -1, -2), np.asarray(ambient, dtype=float)) / lam2[..., None]

    def push(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Ambient image of a chart-coordinate vector."""
        return matvec(self.jacobian(u), w)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product over the last axis, summed alike for one row and a stack."""
    return np.einsum("...i,...i->...", a, b)


def matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v over the last axis of v, broadcasting stacked A and v; one
    operator A (d, d) meets a whole stack v (..., d) as one product v @ A^T."""
    if A.ndim == 2:
        return v @ A.T
    return (A @ v[..., None])[..., 0]


def default_atlas(dim: int) -> tuple[Chart, Chart]:
    """Two-chart atlas with poles at +e1 and -e1."""
    e1 = np.zeros(dim)
    e1[0] = 1.0
    return (Chart.from_pole(SpherePoint(e1)), Chart.from_pole(SpherePoint(-e1)))


def chart_index(x: np.ndarray, atlas: Sequence[Chart]) -> np.ndarray:
    """Index of the atlas chart whose pole is farther from each point of x (..., d).

    On the unit sphere the farther pole is the one with the smaller <x, pole>;
    for the default atlas that is a mask on the sign of x[..., 0], the first
    chart (pole +e1) winning ties.
    """
    poles = np.stack([c.pole.coords for c in atlas])
    return np.argmin(np.asarray(x, dtype=float) @ poles.T, axis=-1)


def chart_for_point(x: np.ndarray, atlas: Sequence[Chart] | None = None) -> Chart:
    """Chart of the atlas whose pole is farther from the point x (d,)."""
    x = np.asarray(x, dtype=float)
    charts = atlas if atlas is not None else default_atlas(x.shape[-1])
    return charts[int(chart_index(x, charts))]


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Seeded sample as one read-only (N, d) array; regeneration is bit-for-bit."""

    coords: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "coords", _readonly(self.coords))

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def points(self) -> tuple[SpherePoint, ...]:
        """The rows as SpherePoints."""
        return tuple(SpherePoint(row) for row in self.coords)

    def arrays(self) -> np.ndarray:
        """A fresh, writable copy of ``coords``."""
        return self.coords.copy()


def sample_sphere(n: int, count: int, seed: int,
                  pole_margin: float = DEFAULT_POLE_MARGIN) -> SampleSet:
    """Seeded uniform samples on S^(2n+1), kept clear of the default chart poles.

    Uniformity comes from normalized Gaussian draws; points closer than
    pole_margin (ambient distance) to +-e1 are rejected and redrawn from the
    same generator stream, so the result is a pure function of (n, count, seed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    d = 2 * n + 2
    e1 = np.eye(d)[0]
    rng = np.random.default_rng(seed)
    kept = np.empty((0, d))
    while len(kept) < count:
        batch = rng.standard_normal((max(count, 64), d))
        norms = np.linalg.norm(batch, axis=1)
        batch = batch[norms > 1e-8] / norms[norms > 1e-8, None]
        ok = ((np.abs(np.abs(batch[:, 0]) - 1.0) >= 1e-12)
              & (np.linalg.norm(batch - e1, axis=1) > pole_margin)
              & (np.linalg.norm(batch + e1, axis=1) > pole_margin))
        kept = np.concatenate([kept, batch[ok][:count - len(kept)]])
    return SampleSet(kept, seed)
