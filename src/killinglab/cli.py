"""Command-line surface: build example structures, run verification batteries,
decompose isometry algebras, classify flows; emit text or JSON reports.

Each parameter is declared once, as a ``RunConfig`` field that the flags and
config keys are read from, and each bound the CLI owns once, as a row of
``DOMAINS`` that ``build_config`` checks before any structure exists.

Exit codes: 0 all checks as expected, 1 some check not as expected, 2 usage
error (unknown selector, malformed rate, bad parameters), 3 numerical-quality
failure (degenerate metric or clustering, or a sample a check cannot judge).

Each check of a verify battery is declared once, as a ``Row`` of its
battery's table: its name, its residual, its tolerance, and a fail floor for
a check expected to fail, so controlled breakage — the whole point of the
deformed examples — is a first-class green result.  One driver
(``Battery.__call__``) streams the sample in chunks, evaluates the rows in
order on each, and joins each row's residuals over the chunks into one check.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from . import verify
from .algebra import (
    DegenerateClusterError,
    centralizer_check,
    eigenfield_residuals,
    eigenfield_rows,
    field_bracket,
    standard_decomposition,
)
from .constructions import (
    HOPF_QUADRATURE_STEPS,
    build_deformed,
    build_flip_fixture,
    build_hopf,
    build_irregular,
    build_quaternionic,
    build_round,
    fit_linear_generator,
    hopf_differential,
    hopf_projection,
    hopf_sample_filter,
    lift_point_bytes,
    lift_potential,
    J2,
    so3_basis,
    solve_lift,
)
from .flows import (PROBE_MAX_POINTS, FlowClassification, OrbitProbe, RotationProfile,
                    classify, numeric_orbit_probe, parse_rate, probe_step)
from .metrics import (LeviCivita, MetricDegeneracyError, NumericalQualityError,
                      sample_bytes, sample_chunks)
from .report import CheckResult, VerificationReport
from .sphere import matvec, rowdot, sample_sphere

EXIT_OK = 0
EXIT_CHECKS = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

COMMANDS = ("verify", "decompose", "classify-flow")
FORMATS = ("text", "json")
# sphere index used when n is not set: build_deformed needs n >= 3
DEFAULT_N = {"gF": 3}
# kept samples the hopf-lift battery needs: the rank of the 4x4 linear fit
HOPF_MIN_KEPT = 4
# gF's expected-fail floors, and the least |c| and samples that clear them (DOMAINS)
GF_WEDGE_FLOOR = 1e-2
GF_TORSION_FLOOR = 1e-3
GF_MIN_C = 5e-3
GF_MIN_SAMPLES = 7
# the peak memory one run may ask for; the so(2n+2) stacks a decomposition peaks near,
# and the largest --n whose decomposition fits (DOMAINS)
MEMORY_BUDGET_GIB = 2
SO_STACKS = 6
MAX_N = 47
# verify streams its sample in chunks, so its memory is one chunk's and its time grows as
# samples times the bytes one point holds (``_work_refusal``); this bounds that product
WORK_BUDGET_GIB = 10


_STRUCTURES = {
    "round": lambda cfg: build_round(cfg.n),
    "gF": lambda cfg: build_deformed(n=cfg.n, c=cfg.c),
    "irregular": lambda cfg: build_irregular(n=cfg.n, a=parse_rate(cfg.a)),
}


# ---------------------------------------------------------------------------
# verification batteries: a table of rows each, run by one driver
# ---------------------------------------------------------------------------

def _chunks(X: np.ndarray) -> list[np.ndarray]:
    """The sample X (N, d) in chunks of ``sample_bytes`` a point."""
    return [X[rows] for rows in sample_chunks(len(X), sample_bytes(X.shape[1]))]


class Row(NamedTuple):
    """One check of a battery: its name; its residual, a function of the
    context with the chunk ``c.x``'s points on its last axis, or, run
    ``once``, of a fixed part of the battery; its tolerance; its fail floor,
    set only for an expected-fail check; and its detail, or a function of the
    residuals joined over the chunks and the context that returns the
    check's residuals and detail, reading each sign, count and flag off the
    whole sample."""

    name: str
    residual: Callable[[SimpleNamespace], Any]
    tol: float
    floor: float | None = None
    detail: str | Callable[[Any, SimpleNamespace], tuple[Any, str]] = ""
    once: bool = False


class Stage(NamedTuple):
    """A build the rows after it share: ``build(c)`` set as ``c.<attr>``,
    timed under the clock row ``name``, once a chunk among a battery's steps
    and once a run in its fixed part."""

    name: str
    attr: str
    build: Callable[[SimpleNamespace], Any]

    def __call__(self, c: SimpleNamespace) -> None:
        with c.rep.stage(self.name):
            setattr(c, self.attr, self.build(c))


class Battery(NamedTuple):
    """A verify battery, run by calling it on a RunConfig.  ``open`` returns
    the report's ``title`` and the structure the context holds: its
    ``metric``, its ``field``, the sphere index ``n`` and what the rows
    read.  ``steps`` are its stages and its rows, each run on a chunk in
    this order, the rows in report order; ``fixed`` are the stages it builds
    once, when it opens: what its rows share over the whole sample, and the
    refusals of a sample it cannot judge; ``extras`` are the report's."""

    open: Callable[[RunConfig], dict]
    steps: tuple[Stage | Row, ...]
    fixed: tuple[Stage, ...] = ()
    extras: Callable[[SimpleNamespace], dict] = lambda c: {}

    @property
    def rows(self) -> tuple[Row, ...]:
        return tuple(step for step in self.steps if isinstance(step, Row))

    def context(self, cfg: RunConfig) -> SimpleNamespace:
        """The battery opened: its structure, the connection, the sample, the
        report, then ``fixed``."""
        c = SimpleNamespace(cfg=cfg, **self.open(cfg))
        c.lc = LeviCivita(c.metric)
        c.X = sample_sphere(c.n, cfg.samples, cfg.seed).coords
        c.rep = VerificationReport(title=c.title, config=dict(vars(cfg)))
        for stage in self.fixed:
            stage(c)
        return c

    def evaluate(self, c: SimpleNamespace, x: np.ndarray, first: bool) -> dict[str, Any]:
        """The residuals of the rows at the chunk x by name, the rows run
        ``once`` only on the ``first`` chunk: the steps in order, each stage
        timed as its stage and each row lapped on the report's clock."""
        c.x, out = x, {}
        for step in self.steps:
            if isinstance(step, Stage):
                step(c)
            elif first or not step.once:
                out[step.name] = step.residual(c)
                c.rep.lap(step.name)
        return out

    def __call__(self, cfg: RunConfig) -> VerificationReport:
        """Evaluate every chunk, and add one check a row from its residuals
        joined over the chunks."""
        c = self.context(cfg)
        parts = [self.evaluate(c, x, not i) for i, x in enumerate(_chunks(c.X))]
        for row in self.rows:
            got = [part[row.name] for part in parts if row.name in part]
            res = got[0] if row.once else np.concatenate(got, axis=-1)
            res, detail = row.detail(res, c) if callable(row.detail) else (res, row.detail)
            c.rep.add(CheckResult.from_residuals(
                row.name, res, row.tol, "pass" if row.floor is None else "fail", row.floor, detail))
        c.rep.extras.update(self.extras(c))
        return c.rep


def _killing_row(name: str, tol: float, at: Callable[[SimpleNamespace], tuple], once: bool) -> Row:
    """The Killing check of the field, or stack (G, d, d) of linear
    generators, at the points on the frame (None: its own) that ``at(c)``
    returns, with the field's values there, which a structure holds (None
    for a stack: computed here).  One that vanishes on the whole sample is
    trivially Killing: its check is flagged degenerate, from each field's
    largest entry at each point, carried under its residual through the
    join."""

    def residual(c: SimpleNamespace) -> np.ndarray:
        fld, X, frame, values = at(c)
        res = verify.check_killing(c.lc, fld, X, frame=frame)  # refuses a bad sample by name
        values = X @ np.swapaxes(fld, -1, -2) if values is None else values
        return np.stack([res, np.abs(values).max(axis=-1)])

    def degenerate(joined: np.ndarray, c: SimpleNamespace) -> tuple[np.ndarray, str]:
        res, size = joined
        return res, ("degenerate: field vanishes on all samples"
                     if (size.max(axis=-1) <= 1e-12).any() else "")

    return Row(name, residual, tol, detail=degenerate, once=once)


def _first_rows(c: SimpleNamespace, built, k: int):
    """The first k sample points' rows of ``built``, a structure of the first
    chunk (``c.st`` or ``c.triple``), when that chunk holds them; else None."""
    return built.rows(slice(k)) if len(c.x) >= len(c.X[:k]) else None


# the unit Killing batteries: round, gF, irregular

def _unit(title: str) -> Callable[[RunConfig], dict]:
    """The opening of a unit Killing battery on the example's structure ``s``."""
    return lambda cfg: {"s": (s := _STRUCTURES[cfg.example](cfg)), "metric": s.metric,
                        "title": title.format(cfg=cfg, dim=2 * cfg.n + 1), "field": s.field,
                        "n": cfg.n}


_UNIT_STAGES = (Stage("structure_at", "st", lambda c: c.lc.structure_at(c.field, c.x)),
                Stage("second_nabla_frame", "T",
                      lambda c: c.lc.second_nabla_frame(c.field, c.x, c.st.frame, c.st.jet)))
_TANGENCY = Row("tangency", lambda c: verify.check_tangency(c.st), verify.TANGENCY_TOL)
_UNIT_LENGTH = Row("unit_length", lambda c: verify.check_unit_length(c.st), verify.UNIT_TOL)
_KILLING = _killing_row("killing", 1e-6, lambda c: (c.field, c.x, c.st.frame, c.st.xi), False)
_CONTACT = Row("contact_endomorphism", lambda c: verify.check_kcontact(c.st), verify.CONTACT_TOL)
_WEDGE = Row("wedge_second_derivative", lambda c: verify.check_sasakian(c.st, c.T),
             verify.FD_TOL)
_TORSION = Row("cr_torsion", lambda c: verify.check_nijenhuis(c.st, c.T), verify.NIJENHUIS_TOL)
# squared two-form of a unit Killing field: -4 across the field, 0 along it
_SPECTRUM = Row("two_form_square_spectrum", lambda c: verify.check_dxi_spectrum(
    c.st, [-4.0] * (c.x.shape[1] - 2) + [0.0]), 1e-5)
# Killing checks of an algebra's basis stack on X[:40], all on one g-orthonormal
# frame, from one exact-flow quotient on a non-round metric
_INVARIANCE = _killing_row("invariance_algebra_killing", 1e-5, lambda c: (
    c.alg.basis, c.X[:40], getattr(_first_rows(c, c.st, 40), "frame", None), None), True)
_ALGEBRA = Stage("isometry_algebra", "alg", lambda c: c.s.isometry_algebra())


def _eigenfield_identities(c: SimpleNamespace) -> np.ndarray:
    nz = [k for k, lam in enumerate(c.dec.rates) if lam > 0.5][0]
    return np.stack(list(eigenfield_rows(c.field, c.dec.blocks[nz], c.st,
                                         rate=c.dec.rates[nz]).values()))


def _deformed_scaling(c: SimpleNamespace) -> np.ndarray:
    """Pinned transverse scaling: phi X = e^{-2F} J0 X and phi J0 X = -e^{2F} X
    at each point of the chunk; NaN where X = 0, off the transverse plane."""
    ds, st = c.s, c.st
    X, F = ds.x_field.value(st.x), ds.f_of(st.x)[:, None]
    J0X = matvec(ds.j0, X)
    r1 = np.abs(matvec(st.phi_ambient, X) - np.exp(-2 * F) * J0X).max(axis=1)
    r2 = np.abs(matvec(st.phi_ambient, J0X) + np.exp(2 * F) * X).max(axis=1)
    return np.where(rowdot(X, X) >= 1e-12, np.maximum(r1, r2), np.nan)


def _transverse_count(joined: np.ndarray, c: SimpleNamespace) -> tuple[np.ndarray | float, str]:
    kept = joined[~np.isnan(joined)]
    return (kept if kept.size else np.inf), f"{kept.size} samples carry the transverse plane"


def _gf_support(c: SimpleNamespace) -> np.ndarray:
    """The samples in the deformation's support, where F != 0; refused when none is."""
    if not (support := c.s.f_of(c.X) != 0).any():
        raise NumericalQualityError(
            f"none of gF's {len(c.X)} samples (seed {c.cfg.seed}) lands in the deformation's "
            f"support, where F != 0, so its expected-fail checks have no defect to measure; "
            f"raise --samples or pick another --seed")
    return support


def _central_pair(c: SimpleNamespace) -> float:
    cen = centralizer_check(c.alg, np.stack([c.s.j0, c.s.j1]))
    return cen["max_commutator"] + (0.0 if all(cen["members"]) else 1.0)


def _irregular_extras(c: SimpleNamespace) -> dict:
    dec = standard_decomposition(c.alg, c.field.matrix)
    cls = classify(c.s.profile())
    probe = numeric_orbit_probe(c.field.matrix, c.X[0], t_max=60.0)
    return {"decomposition": dec.summary(),
            "flow": {"kind": cls.kind, "closure_torus_dim": cls.closure_torus_dim},
            "orbit_probe": {"returns": len(probe.return_times),
                            "min_distance": probe.min_distance}}


_ROUND = Battery(
    _unit("round unit Killing structure on S^{dim}"),
    (*_UNIT_STAGES, _TANGENCY, _UNIT_LENGTH, _KILLING._replace(tol=verify.EXACT_TOL),
     _WEDGE._replace(tol=verify.EXACT_TOL), _CONTACT, _SPECTRUM._replace(tol=1e-8), _TORSION,
     Row("eigenfield_identities", _eigenfield_identities, 1e-6, detail="orthogonality + "
         "bracket + eigenvalue identities over the whole nonzero-rate block")),
    (Stage("decomposition", "dec",
           lambda c: standard_decomposition(c.s.isometry_algebra(), c.s.j0)),),
    lambda c: {"decomposition": c.dec.summary()})

_GF = Battery(
    _unit("boundary-localized deformation on S^{dim} (c={cfg.c})"),
    (*_UNIT_STAGES, _TANGENCY, _UNIT_LENGTH, _KILLING, _CONTACT,
     Row("contact_form_preserved", lambda c: verify.check_contact_form_preserved(
         c.lc, c.lc_round, c.field, c.st), 1e-8),
     _SPECTRUM, Row("deformed_transverse_scaling", _deformed_scaling, 1e-6,
                    detail=_transverse_count),
     _WEDGE._replace(floor=GF_WEDGE_FLOOR), _TORSION._replace(floor=GF_TORSION_FLOOR),
     _INVARIANCE),
    (Stage("support", "support", _gf_support), _ALGEBRA,
     Stage("round_connection", "lc_round", lambda c: LeviCivita(build_round(c.cfg.n).metric))),
    lambda c: {"decomposition": standard_decomposition(c.alg, c.s.j0).summary(),
               "support_fraction": np.count_nonzero(c.support) / len(c.X)})

_IRREGULAR = Battery(
    _unit("irregular unit Killing structure on S^{dim} (a={cfg.a})"),
    (*_UNIT_STAGES, _TANGENCY, _UNIT_LENGTH, _KILLING, _CONTACT, _WEDGE, _TORSION, _SPECTRUM,
     Row("transverse_derivative", lambda c: verify.check_transverse_derivative(c.st, c.s.j0),
         verify.FD_TOL),
     Row("central_pair", _central_pair, 1e-10,
         detail="J0, J1 commute with and belong to the algebra", once=True),
     _INVARIANCE),
    (_ALGEBRA,), _irregular_extras)


# the quaternionic triple

def _bracket_sign(joined, c: SimpleNamespace) -> tuple[Any, str]:
    """The sign the triple's residuals are measured at, ``eps`` of its brackets."""
    return joined, f"bracket sign eps={c.eps:+d}"


def _completion_sign(joined: np.ndarray, c: SimpleNamespace) -> tuple[np.ndarray, str]:
    """Pair completion's unit and product rows and its reconstruction at the
    sign that fits the whole sample best."""
    unit, products, plus, minus = joined
    sign = plus.max() <= minus.max()
    return np.stack([unit, products, plus if sign else minus]), (
        f"unit + aligned cyclic products + covariant reconstruction "
        f"(sign {'+' if sign else '-'}) of completed triple")


def _horizontal_split(c: SimpleNamespace) -> verify.SplittingResult:
    """The split at the first ten sample points, of the first chunk's triple when it holds them."""
    return verify.horizontal_split(_first_rows(c, c.triple, 10)
                                   or c.lc.structure_at(c.qs.generators, c.X[:10]))


def _split_dims(sp: verify.SplittingResult, c: SimpleNamespace) -> tuple[float, str]:
    dims = sorted(set(zip(sp.dim_plus.tolist(), sp.dim_minus.tolist())))
    return float(np.max([sp.split.involution_residual, sp.split.symmetry_residual,
                         sp.invariance_residual, sp.commutation_residual, sp.dim_plus])), (
        f"(dim+, dim-) over samples: {dims}")


# the floor and detail of a flip fixture row that has one
_FLIP_ROWS = {
    "unflipped_uniform_cyclic": (0.5, "mixed triple must not satisfy one uniform cyclic relation"),
    "flipped_uniform_cyclic": (None, lambda r, c: (
        r, f"uniform sign after flip: {c.flip[1]['flipped_sign']}")),
}

_QUATERNIONIC = Battery(
    lambda cfg: {"title": f"right-multiplication contact triple on S^{4 * cfg.m + 3}",
                 "qs": (qs := build_quaternionic(cfg.m)), "metric": qs.metric,
                 "field": qs.generators[0], "n": 2 * cfg.m + 1},
    # one structure a chunk: the triple's and, fourth, its pair completion's (``gens``)
    (Stage("triple_psi", "family", lambda c: c.lc.structure_at(c.gens, c.x)),
     Stage("triple", "triple", lambda c: c.family.fields(slice(3))),
     Row("triple_orthonormality", lambda c: verify.check_triple_orthonormality(c.triple),
         1e-10),
     Row("triple_brackets", lambda c: verify.check_triple_brackets(c.qs.generators, c.eps),
         1e-12, detail=lambda r, c: (r, f"uniform bracket sign eps={c.eps:+d}"), once=True),
     _killing_row("triple_killing", verify.EXACT_TOL,
                  lambda c: (c.qs.generators, c.x, c.triple.frame, c.triple.xi), False),
     Stage("second_nabla_frame", "T",
           lambda c: c.lc.second_nabla_frame(c.qs.generators, c.x, c.triple.frame)),
     Row("triple_wedge_second_derivative", lambda c: verify.check_sasakian(c.triple, c.T),
         verify.EXACT_TOL),
     Row("triple_products_aligned", lambda c: verify.check_triple_products(
         c.triple, c.eps, "aligned"), 1e-10, detail=_bracket_sign),
     Row("triple_products_transposed", lambda c: verify.check_triple_products(
         c.triple, c.eps, "transposed"), 1e-10, 1e-2, _bracket_sign),
     Row("triple_anticommutators", lambda c: verify.check_anticommutators(c.triple), 1e-10),
     Row("structure_squares", lambda c: verify.check_squares(c.triple), 1e-10),
     Row("pair_completion", lambda c: verify.check_pair_completion(c.family, c.gens), 1e-6,
         detail=_completion_sign),
     Row("horizontal_split_plus_trivial", _horizontal_split, 1e-8, detail=_split_dims,
         once=True),
     *(Row(name, lambda c, name=name: c.flip[0][name], 1e-12, *_FLIP_ROWS.get(name, ()),
           once=True) for name in verify.FLIP_CHECKS)),
    # the sign at the closure the bracket residual allows, read by every row that names it
    (Stage("bracket_sign", "eps",
           lambda c: verify.measured_cyclic_sign(c.qs.generators, tol=1e-6)),
     Stage("complete_pair", "gens", lambda c: verify.complete_pair(c.qs.generators)),
     Stage("check_flip_quaternionic", "flip",
           lambda c: verify.check_flip_quaternionic(build_flip_fixture()))),
    lambda c: {"flip_fixture": c.flip[1]})


# the circle-bundle lift

def _hopf_kept(c: SimpleNamespace) -> np.ndarray:
    """The samples away from the anchor antipode, refused when too few for the fit."""
    kept = hopf_sample_filter(c.X)
    if len(kept) < HOPF_MIN_KEPT:
        raise ValueError(
            f"hopf-lift keeps {len(kept)} of {len(c.X)} samples after dropping "
            f"base points near the anchor antipode; the 4x4 linear fit of each "
            f"lift needs at least {HOPF_MIN_KEPT} (raise --samples)")
    return kept


def _path_targets(c: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """The waypoint, the second kept point's base image, and up to 8
    targets, the later kept points' base images away from its antipode;
    refused when potential_path_independence has no target."""
    waypoint, ys = hopf_projection(c.kept[1]), hopf_projection(c.kept[2:])
    ys = ys[ys @ waypoint / c.bundle.base_radius**2 >= -0.8][:8]
    if not len(ys):
        raise ValueError(
            f"hopf-lift's potential_path_independence has no target: none of the "
            f"{len(c.kept) - 2} kept samples past the first two lies away from the antipode of "
            f"its waypoint, the second's base point, so the check has nothing to measure "
            f"(raise --samples)")
    return waypoint, ys


def _path_independence(c: SimpleNamespace) -> tuple[float, int]:
    """Direct potential vs a two-leg path through the waypoint at its
    targets (the first leg rides in the direct quadrature): the worst gap
    and the number of targets."""
    bundle, gen = c.bundle, c.gens[0]
    waypoint, ys = c.targets
    direct = lift_potential(bundle, gen, np.vstack([waypoint, ys]))
    two_leg = direct[0] + lift_potential(replace(bundle, anchor=waypoint), gen, ys)
    return float(np.abs(direct[1:] - two_leg).max()), len(ys)


def _pushdown(c: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """The lifts and the circle generator projected onto the base at the
    first 40 kept points: the base generators fitted, and the fit's residuals."""
    xs, ups = c.kept[:40], np.concatenate([c.lift[0], c.bundle.j0[None]])
    return fit_linear_generator(
        hopf_projection(xs), matvec(hopf_differential(xs), xs @ np.swapaxes(ups, 1, 2)))


def _pushdown_kernel(c: SimpleNamespace) -> tuple[float, np.ndarray]:
    """The left null vector of the pushed-down stack holds the coefficients
    (in the {lift1..3, circle} basis) of the combination the pushdown
    annihilates, which must be the circle generator; and the singular values."""
    u, sv, _ = np.linalg.svd(c.pushdown[0].reshape(4, -1))
    kvec, e_vert = u[:, -1], np.array([0.0, 0.0, 0.0, 1.0])
    return max(float(sv[3]), min(float(np.abs(kvec - e_vert).max()),
                                 float(np.abs(kvec + e_vert).max()))), sv


def _brackets_mod_vertical(c: SimpleNamespace) -> float:
    """For each cyclic pair, the lifted bracket less the lift of the base
    bracket is a multiple of j0."""
    mats, gens, j0 = c.lift[0], c.gens, c.bundle.j0
    i, j = [0, 1, 2], [1, 2, 0]
    flat = gens.reshape(3, -1)
    coef = field_bracket(gens[i], gens[j]).reshape(3, -1) @ flat.T / (flat * flat).sum(1)
    D = field_bracket(mats[i], mats[j]) - (coef @ mats.reshape(3, -1)).reshape(3, 4, 4)
    lam = D.reshape(3, -1) @ j0.ravel() / np.tensordot(j0, j0)
    return np.abs(D - lam[:, None, None] * j0).max()


_HOPF = Battery(
    lambda cfg: {"title": "circle-bundle lift of base rotation fields", "bundle": build_hopf(),
                 "gens": so3_basis(), "metric": (rs := build_round(1)).metric,
                 "field": rs.field, "n": 1},
    (Row("lift_fit_defect", lambda c: c.lift[1], 1e-8,
         detail="largest pointwise defect of the linear fit", once=True),
     Row("lift_skewness", lambda c: np.abs(c.lift[0] + np.swapaxes(c.lift[0], 1, 2)).max(),
         1e-10, once=True),
     _killing_row("lift_killing", 1e-5, lambda c: (c.lift[0], c.x, None, None), False),
     Row("potential_path_independence", _path_independence, 1e-6, once=True,
         detail=lambda r, c: (r[0], f"two-leg vs direct quadrature at {r[1]} targets")),
     Row("pushdown_matches_base", lambda c: max(float(c.pushdown[1].max()), float(
         np.abs(c.pushdown[0][:3] - c.gens).max())), 1e-8,
         detail="fitted lifts project onto the requested rotations", once=True),
     Row("pushdown_kernel_is_vertical", _pushdown_kernel, 1e-6, once=True,
         detail=lambda r, c: (r[0], f"singular values {np.round(r[1], 8).tolist()}")),
     Row("brackets_close_mod_vertical", _brackets_mod_vertical, 1e-8, once=True)),
    (Stage("sample_filter", "kept", _hopf_kept), Stage("path_targets", "targets", _path_targets),
     Stage("lift", "lift", lambda c: solve_lift(c.bundle, c.gens, c.kept)),  # one quadrature
     Stage("pushdown", "pushdown", _pushdown)),
    lambda c: {"kept_samples": len(c.kept)})

_BATTERIES = {"round": _ROUND, "quaternionic": _QUATERNIONIC, "hopf-lift": _HOPF, "gF": _GF,
              "irregular": _IRREGULAR}
EXAMPLES = {"verify": tuple(_BATTERIES), "decompose": tuple(_STRUCTURES)}


# ---------------------------------------------------------------------------
# parameters: each declared once, as a RunConfig field; each bound once, in DOMAINS
# ---------------------------------------------------------------------------

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
# how a field reads its value from text, and what a config value it cannot read is not
_INT = {"parse": int, "kind": "an integer"}
_FLOAT = {"parse": float, "kind": "a number"}
_BOOL = {"parse": lambda val: _BOOL_WORDS[val.lower()],
         "kind": f"a boolean ({'/'.join(_BOOL_WORDS)})"}


@dataclass
class RunConfig:
    """Effective run parameters; echoed verbatim into every report.  Each field
    declares its flag --<name> and config key: ``help``, ``parse`` and ``kind``
    (text when unset), and ``choices`` by command (none: no such flag)."""

    example: str = field(default="round", metadata={"help": "which construction to run",
                                                    "choices": EXAMPLES})
    n: int | None = field(default=None, metadata={  # resolved per example by build_config
        "help": "odd-sphere index: the sphere is S^(2n+1)", **_INT})
    m: int = field(default=1, metadata={"help": "quaternionic index: the sphere is S^(4m+3)",
                                        **_INT})
    c: float = field(default=0.3, metadata={"help": "deformation amplitude", **_FLOAT})
    a: str = field(default="irr:sqrt2m1",
                   metadata={"help": "irregularity rate offset (fraction or irr:<alias>)"})
    seed: int = field(default=42, metadata={"help": "sampling seed", **_INT})
    samples: int = field(default=200, metadata={"help": "number of sample points", **_INT})
    format: str = field(default="text", metadata={"help": "report format",
                                                  "choices": dict.fromkeys(COMMANDS, FORMATS)})
    no_timestamp: bool = field(default=False, metadata={
        "help": "suppress the timestamp field in JSON reports", **_BOOL})


class Domain(NamedTuple):
    """One bound the CLI owns: the parameter, the bound and its reason as
    README's table states them, the commands and examples (None: every one)
    that read the parameter, and its refusal, None while the bound holds."""

    param: str
    bound: str
    reason: str
    commands: tuple[str, ...]
    examples: tuple[str, ...] | None
    refuse: Callable[[RunConfig, argparse.Namespace], str | None]


def _work_refusal(cfg: RunConfig, args: argparse.Namespace) -> str | None:
    """Refuse a verify run one of whose points outgrows the memory budget, or
    whose samples times point bytes outgrow the work budget.  A point holds
    hopf-lift's lift quadrature, or ``sample_bytes`` of its dimension d.  An n
    or m its builder refuses is left to it to name."""
    quaternionic = cfg.example == "quaternionic"
    if cfg.example == "hopf-lift":
        flags, d, per = "", 4, lift_point_bytes(HOPF_QUADRATURE_STEPS, 3)
    elif (cfg.m < 0) if quaternionic else (cfg.n < 1):
        return None
    else:
        flags, d = (f"--m {cfg.m} ", 4 * cfg.m + 4) if quaternionic else (f"--n {cfg.n} ",
                                                                           2 * cfg.n + 2)
        per = sample_bytes(d)
    if per > MEMORY_BUDGET_GIB << 30:
        return (f"{flags.strip()} is out of reach: one sample point of verify --example "
                f"{cfg.example} holds about {per / 2**30:.3g} GiB (d = {d}), against a "
                f"{MEMORY_BUDGET_GIB} GiB budget")
    if cfg.samples * per <= WORK_BUDGET_GIB << 30:
        return None
    return (f"{flags}--samples {cfg.samples} is out of reach: verify --example {cfg.example} "
            f"streams {per} bytes a point (d = {d}), {cfg.samples * per / 2**30:.3g} GiB in "
            f"all, against a {WORK_BUDGET_GIB} GiB work budget; --samples may be at most "
            f"{(WORK_BUDGET_GIB << 30) // per} here")


def _rate_error(spec: str) -> str | None:
    """parse_rate's refusal of spec, None when it parses."""
    try:
        parse_rate(spec)
    except ValueError as exc:
        return str(exc)
    return None


def _horizon_refusal(cfg: RunConfig, args: argparse.Namespace) -> str | None:
    """Refuse a probe horizon, --horizon or --probe's default, whose grid of
    ``probe_step`` of the fastest rate holds under 3 or over PROBE_MAX_POINTS
    points; a rate parse_rate refuses is named by it."""
    if args.horizon is None and not args.probe:
        return None
    rates = [parse_rate(r) for r in args.rates]
    w_max = max(abs(r.value()) for r in rates)
    step = probe_step(w_max)
    horizon = args.horizon
    if horizon is None:
        horizon = _default_horizon(classify(RotationProfile(rates)))
    if 2 < horizon / step <= PROBE_MAX_POINTS:  # false for NaN
        return None
    grid = "points of step 2pi/512" + (f" / {w_max:g}, the fastest rate" if w_max > 1 else "")
    bound = (f"must be a time over {2 * step:.6g} and at most {PROBE_MAX_POINTS * step:.6g} "
             f"(a probe grid of 3 to {PROBE_MAX_POINTS} {grid}), got {horizon:g}")
    if args.horizon is not None:
        return f"--horizon {bound}"
    return (f"the default --horizon (1.5 generic periods, or 50 on a flow that never closes) "
            f"{bound}; pass a shorter --horizon")


# Every bound the CLI owns, checked in this order by build_config before any structure,
# sample or array exists.  The library's own refusals by name (the builders' n and m,
# gF's n >= 3 and finite c, sample_sphere's count, the probe's t_max) are its public
# API's guards and are not restated.
DOMAINS = (
    Domain("--n", f"n <= {MAX_N}",
           f"so(2n+2) is a stack of (n+1)(2n+1) generators of (2n+2)^2 doubles, 336 MB at "
           f"n = {MAX_N}; a decomposition peaks near {SO_STACKS} stacks (n = 40: 1.06 GB)",
           ("verify", "decompose"), tuple(_STRUCTURES),
           lambda cfg, args: None if cfg.n <= MAX_N else (
               f"--n {cfg.n} is out of reach: --n may be at most {MAX_N}, whose so(2n+2) "
               f"generator stack (336 MB) keeps a decomposition's peak memory within a "
               f"{MEMORY_BUDGET_GIB} GiB budget")),
    Domain("--samples", "samples >= 1", "a check needs a sample", COMMANDS, None,
           lambda cfg, args: None if cfg.samples >= 1 else
           f"samples must be >= 1, got {cfg.samples}"),
    Domain("--seed", "seed >= 0", "numpy seeds no generator from a negative seed",
           COMMANDS, None,
           lambda cfg, args: None if cfg.seed >= 0 else f"seed must be >= 0, got {cfg.seed}"),
    Domain("--samples", f"point_bytes <= {MEMORY_BUDGET_GIB} GiB and samples * point_bytes <= "
           f"{WORK_BUDGET_GIB} GiB",
           "verify holds a chunk of points at a time, at least one; at the work bound round "
           "--n 2 took 30 s, gF 52 s and irregular 98 s (282 MB)",
           ("verify",), None, _work_refusal),
    Domain("--c", f"abs(c) >= {GF_MIN_C:g}",
           "from 5 to 200 samples wedge_second_derivative reads 2.0-4.0 abs(c) and cr_torsion "
           "0.96-2.0 abs(c)", ("verify",), ("gF",),
           lambda cfg, args: None if not abs(cfg.c) < GF_MIN_C else (  # NaN: build_deformed
               f"gF needs |c| >= {GF_MIN_C:g}, got c={cfg.c:g}: below it the defects of "
               f"wedge_second_derivative and cr_torsion, linear in |c|, miss their "
               f"expected-fail floors {GF_WEDGE_FLOOR:g} and {GF_TORSION_FLOOR:g}")),
    # a c that build_deformed refuses is left to it to name
    Domain("--samples", f"samples >= {GF_MIN_SAMPLES}",
           "over seeds 0-199 (c = 0.3, n = 3), 1 to 6 samples left 94, 45, 16, 6, 4 and 2 "
           "seeds with an expected-fail check under its floor, 7 to 12 none; at a larger n "
           "a sample can miss the deformation's support, which is refused when drawn",
           ("verify",), ("gF",),
           lambda cfg, args: None if cfg.samples >= GF_MIN_SAMPLES or not np.isfinite(cfg.c) else (
               f"gF needs --samples >= {GF_MIN_SAMPLES}, got {cfg.samples}: below it some "
               f"seeds place no sample where the deformation bends wedge_second_derivative "
               f"past its expected-fail floor {GF_WEDGE_FLOOR:g}")),
    Domain("--a", "parses as a rate", "the offset is an exact rate",
           ("verify", "decompose"), ("irregular",),
           lambda cfg, args: ((err := _rate_error(cfg.a))
                              and f"--a {cfg.a!r} is not a rate: {err}")),
    Domain("--horizon", f"3 to {PROBE_MAX_POINTS} grid points of step 2pi/512 / max(1, w_max)",
           "3 points hold one local minimum; 2**21 are 4096 turns of the fastest rate w_max",
           ("classify-flow",), None, _horizon_refusal),
)


def load_config_file(path: str) -> dict:
    """Flat key=value lines mirroring the flags; '#' starts a comment.  A
    RunConfig key's value is read as its field declares, any other kept as
    text for build_config to refuse."""
    meta = {f.name: f.metadata for f in fields(RunConfig)}
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            parse = meta.get(key, {}).get("parse", str)
            try:
                out[key] = parse(val)
            except (KeyError, ValueError):
                raise ValueError(f"config key '{key}' = {val!r} is not "
                                 f"{meta[key]['kind']}") from None
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags; then every DOMAINS row
    that reads the resolved parameters, in order."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            file_vals = load_config_file(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config!r}: "
                             f"{exc.strerror or exc}") from None
        unknown = set(file_vals) - set(vars(cfg))
        if unknown:  # rates and horizon among them: classify-flow reads those as flags
            raise ValueError(f"unknown config keys: {sorted(unknown)}; a config file "
                             f"sets {', '.join(vars(cfg))}")
        for f in fields(RunConfig):  # a file value gets the choices its flag would
            allowed = f.metadata.get("choices", {}).get(args.command)
            if allowed and f.name in file_vals and file_vals[f.name] not in allowed:
                raise ValueError(f"config key '{f.name}' = {file_vals[f.name]!r} is not one "
                                 f"of {', '.join(allowed)}")
        cfg = replace(cfg, **file_vals)
    cfg = replace(cfg, **{key: val for key in vars(cfg)
                          if (val := getattr(args, key, None)) is not None})
    if cfg.n is None:
        cfg = replace(cfg, n=DEFAULT_N.get(cfg.example, 2))
    for row in DOMAINS:
        if args.command in row.commands and (row.examples is None or cfg.example in row.examples):
            if refusal := row.refuse(cfg, args):
                raise ValueError(refusal)
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(rep: VerificationReport, cfg: RunConfig) -> int:
    """Print the report; return its exit code.

    A reader that closes stdout early (``| head``) loses the rest of the
    report silently: stdout is pointed at os.devnull, as in Python's recipe
    for SIGPIPE, so the interpreter's final flush cannot raise again, and
    the verdict still sets the exit code."""
    try:
        if cfg.format == "json":
            print(rep.to_json(include_timestamp=not cfg.no_timestamp))
        else:
            print(rep.render_text())
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # a stdout with no file descriptor is never flushed at exit
        finally:
            os.close(devnull)
    return EXIT_OK if rep.all_as_expected else EXIT_CHECKS


def cmd_verify(cfg: RunConfig) -> int:
    return _emit(_BATTERIES[cfg.example](cfg), cfg)


def cmd_decompose(cfg: RunConfig) -> int:
    s = _STRUCTURES[cfg.example](cfg)
    lc = LeviCivita(s.metric)
    alg = s.isometry_algebra()
    dec = standard_decomposition(alg, s.field.matrix)
    rep = VerificationReport(
        title=f"adjoint-square decomposition ({cfg.example}, S^{2 * cfg.n + 1})",
        config=dict(vars(cfg)))
    st = None
    if any(rate != 0.0 for rate in dec.rates):  # the eigenfield checks read st
        X = sample_sphere(cfg.n, min(cfg.samples, 40), cfg.seed).coords
        st = lc.structure_at(s.field, X)
    for rate, block in zip(dec.rates, dec.blocks):
        if rate == 0.0:  # the commutant of xi, first
            rep.add(CheckResult.from_residuals(
                "zero_block_commutes", np.abs(field_bracket(s.field.matrix, block)).max(),
                1e-10, detail="[xi, A] = 0 for every A of the rate-0 block"))
        else:
            res = eigenfield_residuals(s.field, block, st, rate=rate)
            rep.add(CheckResult.from_residuals(f"eigenfield_identities_rate_{rate:g}",
                                               list(res.values()), 1e-6))
    summary = dec.summary()
    rep.extras["table"] = "; ".join(
        [f"g0: {dec.zero_block_dim}"]
        + [f"lambda={lam:g}: {dim}" for lam, dim in summary if lam != 0.0])
    rep.extras["blocks"] = summary
    rep.extras["algebra_dim"] = alg.dim
    return _emit(rep, cfg)


def _period_residual(probe: OrbitProbe, period: float) -> float:
    """Largest |t_k - k T| over the probe's returns t_1 < t_2 < ..., matched in
    order with the multiples kT of the period T that its grid can hold: 0
    when the grid holds none and the probe finds none, inf when the counts
    differ.

    The probe's grid holds the times h (1, ..., n), h = ``probe.step`` and
    n = ceil(t_max / h).  A return shows as a local minimum at its nearest
    grid time, and only the interior times 2, ..., n - 1 can be one, so the
    grid holds the kT with 1.5 < kT / h < n - 1/2.  The edge rule: a multiple
    in the last half step, kT within h / 2 of h n, is not held, even at
    kT = t_max; one at a bound itself, where two grid times tie, may fall
    either way.
    """
    h = probe.step
    n = int(np.ceil(probe.t_max / h))
    held = period * np.arange(1, np.ceil((n - 0.5) * h / period))
    held = held[held > 1.5 * h]
    times = probe.return_times
    if len(times) != len(held):
        return np.inf
    return float(np.abs(np.array(times) - held).max(initial=0.0))


def _default_horizon(cls: FlowClassification) -> float:
    """The probe's horizon when --horizon is unset: 1.5 generic periods, or 50
    on a flow that never closes."""
    return 1.5 * cls.generic_period if cls.generic_period else 50.0


def cmd_classify_flow(args: argparse.Namespace, cfg: RunConfig) -> int:
    rates = tuple(parse_rate(r) for r in args.rates)
    cls = classify(RotationProfile(rates))
    rep = VerificationReport(title="flow classification", config={
        **vars(cfg), "rates": list(args.rates),
        "horizon": args.horizon, "probe": bool(args.probe)})
    rep.extras["classification"] = {
        "kind": cls.kind,
        "closure_torus_dim": cls.closure_torus_dim,
        "rate_values": list(cls.rate_values),
        "integer_profile": (list(cls.integer_profile)
                            if cls.integer_profile is not None else None),
        "generic_period": cls.generic_period,
        "exceptional_periods": list(cls.exceptional_periods),
    }
    if args.probe:
        k = len(rates)
        gen = np.zeros((2 * k, 2 * k))
        for i, r in enumerate(rates):
            gen[2 * i:2 * i + 2, 2 * i:2 * i + 2] = r.value() * J2
        x0 = np.zeros(2 * k)
        x0[0::2] = 1.0 / np.sqrt(k)
        horizon = args.horizon if args.horizon is not None else _default_horizon(cls)
        probe = numeric_orbit_probe(gen, x0, t_max=horizon)
        rep.extras["orbit_probe"] = {
            "return_times": list(probe.return_times),
            "min_distance": probe.min_distance,
        }
        if cls.generic_period is not None:
            res = _period_residual(probe, cls.generic_period)
            rep.add(CheckResult.from_residuals("orbit_return_matches_period", res, 1e-5))
        else:
            res = 0.0 if not probe.return_times else 1.0
            rep.add(CheckResult.from_residuals("orbit_never_returns", res, 0.5,
                                               detail=f"min distance {probe.min_distance:.3e} "
                                                      f"over horizon {horizon:g}"))
    return _emit(rep, cfg)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every string ``float()`` or ``Fraction()``
    reads for a value.

    argparse alone reads a leading '-' as a negative number only before
    digits with at most a decimal point, and takes any other, as in ``--c
    -1e-3``, ``--c -inf`` or the rate ``--a -1/2``, for an unknown flag,
    refusing the option for its missing value.  A fraction with a zero
    denominator is a value too, which its option's parser refuses by name.
    Subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-") and not arg_string.startswith("--"):  # a sign, or a flag
            from fractions import Fraction  # loaded with flows already

            for read in (float, Fraction):
                try:
                    read(arg_string)
                except ValueError:
                    continue
                except ZeroDivisionError:
                    pass
                return None  # a value, not an option
        return super()._parse_optional(arg_string)


def _add_common(parser: argparse.ArgumentParser, command: str) -> None:
    """The command's flags: one per RunConfig field it reads, as the field
    declares it, and --config."""
    for f in fields(RunConfig):
        meta = f.metadata
        choices = meta.get("choices")
        if choices is not None and command not in choices:
            continue  # classify-flow takes no example
        kind = ({"action": "store_true"} if isinstance(f.default, bool)
                else {"type": meta.get("parse", str), "choices": choices and choices[command]})
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            default=None,  # None: unset, the file decides
                            help=meta["help"], **kind)
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value config file; flags override it")


@functools.cache  # one per process: parse_args never writes to it
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="killinglab",
        description="Numerical verification batteries for unit Killing fields "
                    "on odd spheres and their contact-type structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an example's check battery")
    _add_common(p_verify, "verify")

    p_dec = sub.add_parser("decompose",
                           help="adjoint-square decomposition of an example's "
                                "invariance algebra")
    _add_common(p_dec, "decompose")

    p_cls = sub.add_parser("classify-flow",
                           help="classify a rotation-rate profile")
    p_cls.add_argument("rates", nargs="+",
                       help="rotation rates: integers, fractions, or "
                            "irr:<alias> tagged irrationals")
    p_cls.add_argument("--probe", action="store_true",
                       help="cross-check with the closed-form orbit-distance probe")
    p_cls.add_argument("--horizon", type=float, default=None,
                       help="orbit probe time horizon")
    _add_common(p_cls, "classify-flow")
    return parser


def _size_flags(cfg: RunConfig | None, command: str) -> str:
    """The command with the flags that size its arrays, as the run resolved
    them (the command alone for classify-flow, or before cfg exists)."""
    if cfg is None or command == "classify-flow":
        return command
    size = {"quaternionic": f"--m {cfg.m} ", "hopf-lift": ""}.get(cfg.example, f"--n {cfg.n} ")
    return f"{command} --example {cfg.example} {size}--samples {cfg.samples}"


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    cfg = None
    try:
        cfg = build_config(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "decompose":
            return cmd_decompose(cfg)
        return cmd_classify_flow(args, cfg)
    except (NumericalQualityError, MetricDegeneracyError,
            DegenerateClusterError) as exc:
        print(f"numerical quality failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's ArrayMemoryError is one
        print(f"usage error: {_size_flags(cfg, args.command)} is out of reach: it ran out of "
              f"the memory this process may allocate ({exc}); a smaller run fits",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
