"""Orbit classification for linear Killing flows on odd spheres.

A skew generator decomposes the ambient space into invariant 2-planes with
rotation rates rho_i.  Whether every orbit closes — and with what period —
is a question about Q-linear dependence of the rates, which floats cannot
answer.  Rates are therefore carried exactly as p + q*sqrt(k) with rational
p, q (``ExactScalar``); classification over Q is exact integer arithmetic.

A numeric probe (the closed-form distance of the skew flow from its start,
coarse grid plus a safeguarded Newton refinement of near-returns) cross-checks
the exact verdicts.  Its settings are module constants: the grid step COARSE_STEP
at rates up to 1 (``probe_step`` divides it by a faster flow's fastest rate),
the candidate threshold PROBE_CANDIDATE_DIST, the return tolerance
PROBE_RETURN_TOL and the candidate cap PROBE_MAX_CANDIDATES; declared rates
match a generator's spectrum to RATE_MATCH_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

TAG_VALUES = {
    "sqrt2": math.sqrt(2.0),
    "sqrt5": math.sqrt(5.0),
}

# largest mismatch of a declared rate and the generator's spectrum (rotation_profile)
RATE_MATCH_TOL = 1e-9

# CLI-facing aliases for common irrational rate offsets
RATE_ALIASES = {
    "sqrt2m1": ("sqrt2 - 1", Fraction(-1), Fraction(1), "sqrt2"),
    "golden": ("(1 + sqrt5)/2", Fraction(1, 2), Fraction(1, 2), "sqrt5"),
}


@dataclass(frozen=True)
class ExactScalar:
    """Exact number p + q*sqrt(k), with p, q rational and k a fixed tag."""

    p: Fraction
    q: Fraction = Fraction(0)
    tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q == 0:
            object.__setattr__(self, "tag", None)
        elif self.tag not in TAG_VALUES:
            raise ValueError(f"unknown irrational tag {self.tag!r}")

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def value(self) -> float:
        out = float(self.p)
        if self.q != 0:
            out += float(self.q) * TAG_VALUES[self.tag]
        return out

    def scaled(self, c) -> "ExactScalar":
        c = Fraction(c)
        return ExactScalar(self.p * c, self.q * c, self.tag)

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.p)
        return f"{self.p} + {self.q}*sqrt({self.tag[4:]})"


def parse_rate(spec: str) -> ExactScalar:
    """Parse "3", "-5/2", "0.25" or "irr:<alias>" into an exact rate.  Any other
    spec, a zero denominator and a nonzero value that rounds to an infinite or
    zero float are refused naming the spec."""
    spec = spec.strip()
    if spec.startswith("irr:"):
        alias = spec[4:]
        if alias not in RATE_ALIASES:
            raise ValueError(f"rate {spec!r} names an unknown irrational alias; "
                             f"known: {sorted(RATE_ALIASES)}")
        _, p, q, tag = RATE_ALIASES[alias]
        return ExactScalar(p, q, tag)
    try:
        p = Fraction(spec)
    except ZeroDivisionError:
        raise ValueError(f"rate {spec!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"rate {spec!r} is not an integer, a fraction p/q, a decimal "
                         f"or irr:<alias>") from None
    try:
        value = float(p)
    except OverflowError:
        value = math.inf if p > 0 else -math.inf
    if math.isinf(value) or (p and not value):
        raise ValueError(f"rate {spec!r} is outside the float range (it rounds to {value:g})")
    return ExactScalar(p)


@dataclass(frozen=True)
class RotationProfile:
    """Exact rotation rates of a skew generator, one per invariant 2-plane."""

    rates: tuple[ExactScalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(self.rates))
        if not self.rates:
            raise ValueError("empty rotation profile")

    def values(self) -> tuple[float, ...]:
        return tuple(r.value() for r in self.rates)

    def scaled(self, c) -> "RotationProfile":
        return RotationProfile(tuple(r.scaled(c) for r in self.rates))


def rotation_profile(xi: np.ndarray, declared: Sequence[ExactScalar]) -> RotationProfile:
    """Validate declared exact rates against the spectrum of a skew matrix.

    The positive imaginary parts of the eigenvalues of ``xi`` must match the
    absolute declared rates (with multiplicity) within RATE_MATCH_TOL.
    """
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[0]
    if len(declared) * 2 != d:
        raise ValueError(f"need {d // 2} rates for a {d}x{d} generator, "
                         f"got {len(declared)}")
    ev = np.linalg.eigvals(xi)
    numeric = np.sort(ev.imag[ev.imag > -1e-14])[-d // 2:]
    numeric = np.sort(np.abs(numeric))
    stated = np.sort([abs(r.value()) for r in declared])
    if float(np.abs(numeric - stated).max()) > RATE_MATCH_TOL:
        raise ValueError(
            f"declared rates {stated} disagree with generator spectrum {numeric}")
    return RotationProfile(tuple(declared))


@dataclass(frozen=True)
class FlowClassification:
    """Verdict on the orbit structure of a linear Killing flow.

    kind: "regular" (all orbits circles of one common period),
    "quasi-regular" (all orbits close, exceptional shorter periods exist), or
    "irregular" (generic orbits dense in a torus of dimension
    ``closure_torus_dim`` > 1).  ``integer_profile`` holds the coprime
    integer rate vector in the periodic cases.
    """

    kind: str
    closure_torus_dim: int
    rate_values: tuple[float, ...]
    integer_profile: tuple[int, ...] | None
    generic_period: float | None
    exceptional_periods: tuple[float, ...]


def _q_rank(rates: Sequence[ExactScalar]) -> int:
    """Dimension over Q of the span of the rates (exact arithmetic)."""
    nz = [r for r in rates if r.p != 0 or r.q != 0]
    if not nz:
        return 0
    for a, b in combinations(nz, 2):
        if a.p * b.q - b.p * a.q != 0:
            return 2
    return 1


def classify(profile: RotationProfile) -> FlowClassification:
    """Exact orbit classification of the flow with the given rotation rates."""
    rates = profile.rates
    tags = {r.tag for r in rates if r.q != 0}
    if len(tags) > 1:
        raise ValueError(f"rates with mixed irrational tags {sorted(tags)} are not "
                         f"comparable with exact arithmetic")
    if any(r.p == 0 and r.q == 0 for r in rates):
        raise ValueError("zero rotation rate: the generator vanishes on a subsphere "
                         "and the flow is not classified here")
    values = profile.values()
    rank = _q_rank(rates)
    if rank == 2:
        return FlowClassification(
            kind="irregular", closure_torus_dim=2, rate_values=values,
            integer_profile=None, generic_period=None, exceptional_periods=())

    # rank 1: every rate is a rational multiple of the first one
    r0 = rates[0]
    cs = []
    for r in rates:
        c = r.q / r0.q if r0.q != 0 else r.p / r0.p
        cs.append(Fraction(c))
    L = math.lcm(*[c.denominator for c in cs])
    ms = [int(c * L) for c in cs]
    g = math.gcd(*[abs(m) for m in ms])
    ms = [m // g for m in ms]
    base = r0.scaled(Fraction(g, L))  # rate_i = ms[i] * base exactly
    generic_period = 2.0 * math.pi / abs(base.value())
    kind = "regular" if all(abs(m) == 1 for m in ms) else "quasi-regular"

    abs_ms = sorted(set(abs(m) for m in ms))
    excl = set()
    for size in range(1, len(abs_ms) + 1):
        for sub in combinations(abs_ms, size):
            gs = math.gcd(*sub)
            if gs > 1:
                excl.add(generic_period / gs)
    return FlowClassification(
        kind=kind, closure_torus_dim=1, rate_values=values,
        integer_profile=tuple(ms), generic_period=generic_period,
        exceptional_periods=tuple(sorted(excl)))


@dataclass(frozen=True)
class OrbitProbe:
    """Numeric near-return survey of one orbit of a linear flow, on a grid of
    ``step``, ``probe_step`` of the flow's fastest rate."""

    return_times: tuple[float, ...]
    min_distance: float
    t_max: float
    step: float


# the orbit probe's grid step at rates up to 1: 512 points per turn of 2 pi
COARSE_STEP = 2.0 * math.pi / 512.0
# grid minima below this distance from x0 are refined; refined minima below
# PROBE_RETURN_TOL count as returns; at most PROBE_MAX_CANDIDATES are refined
PROBE_CANDIDATE_DIST = 0.25
PROBE_RETURN_TOL = 1e-7
PROBE_MAX_CANDIDATES = 4096
# the most points the probe's coarse grid may hold, ceil(t_max / probe_step(w_max)):
# 2**21 is 4096 turns of the fastest rate, past which a flow returning once a
# turn has filled the probe's PROBE_MAX_CANDIDATES candidates
PROBE_MAX_POINTS = 2**21
# the probe's Newton refinement stops at a step of NEWTON_STOP_ULPS ulps of t
NEWTON_STOP_ULPS = 4
NEWTON_MAX_ITER = 100


def probe_step(w_max: float) -> float:
    """The probe's grid step for a flow whose fastest rate is w_max: COARSE_STEP
    over max(1, w_max), 512 points per period of the fastest term."""
    return COARSE_STEP / max(1.0, w_max)


def numeric_orbit_probe(xi: np.ndarray, x0: np.ndarray, t_max: float,
                        chunk: int = 16384) -> OrbitProbe:
    """Scan |exp(t xi) x0 - x0| on a coarse grid and refine its local minima.

    ``xi`` must be skew and ``t_max`` over 0 with a grid of at most
    PROBE_MAX_POINTS points; any other is refused by name.  The grid step is
    ``probe_step(w_max)``, w_max the fastest rate of xi, so the fastest term
    of the distance gets 512 points a period (the Nyquist-Shannon criterion,
    Shannon, Proc. IRE 37 (1949)).  The distance is
    the closed form of a skew flow: with i xi = V W V^H (``eigh``, as in
    ``metrics.skew_exp``), weights c_j = |(V^H x0)_j|^2 and rates w_j,

        |e^(t xi) x0 - x0|^2 = 4 sum_j c_j sin^2(w_j t / 2)
                             = 2 sum_j c_j (1 - cos w_j t),

    real arithmetic with no cancellation of e^(t xi) x0 - x0, and V
    orthonormal also at repeated rates.  Each term is even in w_j and zero at
    w_j = 0, so the spectrum folds to one column per distinct positive rate
    |w_j| (rates within RATE_MATCH_TOL of each other are one, as in
    ``rotation_profile``) weighted by the sum of its c_j: an (n, r) grid for r
    distinct rates.  The grid distance is built ``chunk`` points at a time,
    which bounds the (chunk, r) sine temporary.  Its local
    minima below PROBE_CANDIDATE_DIST (the first PROBE_MAX_CANDIDATES of them)
    are refined together by safeguarded Newton on the derivative
    g = sum_j c_j w_j sin w_j t, with g' = sum_j c_j w_j^2 cos w_j t (Press et
    al., *Numerical Recipes*, 9.4, ``rtsafe``): each iterate stays within one
    grid step of its grid time, in a bracket shrunk by the sign of g, and a
    step that leaves the bracket or meets g' <= 0 bisects it.  The threshold
    needs no scaling: the distance moves at the flow's speed |xi x0| <= w_max
    for a unit x0, so some grid time lies within |xi x0| step / 2 <= pi / 512
    of every return.  Refined minima below PROBE_RETURN_TOL, more than one
    step in and ten steps apart, count as returns.  ``min_distance`` is the smallest
    distance seen anywhere past the initial departure from x0, so an orbit
    that never returns reports a large floor instead of a spurious period.
    """
    xi = np.asarray(xi, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1] \
            or np.abs(xi + xi.T).max() > 1e-12 * max(1.0, np.abs(xi).max()):
        raise ValueError("numeric_orbit_probe needs a skew generator xi, a square matrix "
                         f"with xi^T = -xi; got a {'x'.join(map(str, xi.shape))} array "
                         "that is not one")
    w, V = np.linalg.eigh(1j * xi)
    w_max = float(np.abs(w).max(initial=0.0))
    step = probe_step(w_max)
    if not 0 < t_max / step <= PROBE_MAX_POINTS:  # also refuses NaN
        raise ValueError(f"numeric_orbit_probe needs a t_max over 0 and at most "
                         f"{PROBE_MAX_POINTS * COARSE_STEP:.6g} / max(1, w_max) = "
                         f"{PROBE_MAX_POINTS * step:.6g} (a grid of at most {PROBE_MAX_POINTS} "
                         f"points of step {COARSE_STEP:.6g} / max(1, w_max), w_max = {w_max:g}, "
                         f"the fastest rate), got t_max={t_max:g}")
    weights = np.abs(V.conj().T @ x0) ** 2
    # every term is even in w_j and vanishes at w_j = 0: the +-w pairs and the repeated
    # rates fold into one column per distinct positive rate, summing their weights
    order = np.argsort(np.abs(w))
    w, weights = np.abs(w)[order], weights[order]
    starts = np.flatnonzero(np.diff(w, prepend=0.0) > RATE_MATCH_TOL)
    w, weights = w[starts], np.add.reduceat(weights, starts)
    half = 0.5 * w

    def dist(ts: np.ndarray) -> np.ndarray:
        s = np.sin(np.multiply.outer(ts, half))
        return 2.0 * np.sqrt((s * s) @ weights)

    n = int(np.ceil(t_max / step))
    ts = step * np.arange(1, n + 1)
    ds = np.empty(n)
    for i in range(0, n, chunk):
        ds[i:i + chunk] = dist(ts[i:i + chunk])
    # the orbit has departed from x0 at the first grid point below its predecessor,
    # or is still departing at the last
    first_drop = int(np.append(ds[1:] < ds[:-1], True).argmax())
    min_dist = float(ds[min(first_drop + 1, n - 1):].min())
    mid = ds[1:-1]
    t = ts[1:-1][(mid < ds[:-2]) & (mid <= ds[2:])
                 & (mid < PROBE_CANDIDATE_DIST)][:PROBE_MAX_CANDIDATES]

    lo, hi = t - step, t + step
    live = np.ones(t.shape, dtype=bool)
    cw, cw2 = weights * w, weights * w * w
    for _ in range(NEWTON_MAX_ITER):
        if not live.any():
            break
        phase = np.multiply.outer(t, w)
        g, gp = np.sin(phase) @ cw, np.cos(phase) @ cw2
        lo, hi = np.where(g < 0.0, t, lo), np.where(g > 0.0, t, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = t - g / gp
        t_new = np.where((gp > 0.0) & (lo <= t_new) & (t_new <= hi), t_new, 0.5 * (lo + hi))
        t_new = np.where(live, t_new, t)
        live &= np.abs(t_new - t) > NEWTON_STOP_ULPS * np.spacing(t)
        t = t_new

    returns: list[float] = []
    for t_ref, d_ref in zip(t.tolist(), dist(t).tolist()):
        min_dist = min(min_dist, d_ref)
        if d_ref < PROBE_RETURN_TOL and t_ref > step:
            if not returns or t_ref - returns[-1] > 10 * step:
                returns.append(t_ref)
    return OrbitProbe(return_times=tuple(returns), min_distance=float(min_dist),
                      t_max=float(t_max), step=step)
