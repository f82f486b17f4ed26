"""Command-line surface: build example structures, run verification batteries,
decompose isometry algebras, classify flows; emit text or JSON reports.

Each parameter is declared once, as a ``RunConfig`` field that the flags and
config keys are read from, and each bound the CLI owns once, as a row of
``DOMAINS`` that ``build_config`` checks before any structure exists.

Exit codes: 0 all checks as expected, 1 some check not as expected, 2 usage
error (unknown selector, malformed rate, bad parameters), 3 numerical-quality
failure (untrustworthy finite differences, degenerate metric or clustering).

Every battery declares which checks are expected to pass and which are
expected to fail (with a residual floor), so controlled breakage — the whole
point of the deformed examples — is a first-class green result.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

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
                      StructureTensors, sample_bytes, sample_chunks)
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
# verification batteries
# ---------------------------------------------------------------------------

def _step_canary(lc: LeviCivita, fld, x: np.ndarray, rep: VerificationReport) -> None:
    """The step canary at x, timed as a row of its own, when fld takes finite
    differences on lc's metric; a closed form reads no step to guard."""
    if not lc.closed_form(fld):
        with rep.stage("covariant_canary"):
            verify.covariant_canary(lc, fld, x)


def _open(cfg: RunConfig, metric, fld, n: int,
          title: str) -> tuple[LeviCivita, np.ndarray, VerificationReport]:
    """Every battery's opening: the connection, the sample on S^(2n+1), the
    report and the step canary on the first sample point."""
    lc = LeviCivita(metric, fd_step=cfg.fd_step)
    X = sample_sphere(n, cfg.samples, cfg.seed).coords
    rep = VerificationReport(title=title, config=dict(vars(cfg)))
    _step_canary(lc, fld, X[0], rep)
    return lc, X, rep


def _chunks(X: np.ndarray) -> list[np.ndarray]:
    """The sample X (N, d) in chunks, each added check of which the report joins
    by name (``second_nabla_frame`` chunks its stencil on its own)."""
    return [X[rows] for rows in sample_chunks(len(X), sample_bytes(X.shape[1], stencil=False))]


def _unit_killing(cfg: RunConfig, title: str, killing_tol: float):
    """Open a unit-Killing battery on the example's structure s and stream its
    sample X: on each chunk build the structure tensors st and the second
    derivative T once, add the tangency, unit-length and Killing checks, and
    yield (s, lc, X, rep, st, T); st.x is the chunk."""
    s = _STRUCTURES[cfg.example](cfg)
    lc, X, rep = _open(cfg, s.metric, s.field, cfg.n, title)
    for x in _chunks(X):
        with rep.stage("structure_at"):
            st = lc.structure_at(s.field, x)
        with rep.stage("second_nabla_frame"):
            T = lc.second_nabla_frame(s.field, x, st.frame)
        rep.add(verify.check_tangency(s.field, x))
        rep.add(verify.check_unit_length(lc, s.field, x))
        rep.add(verify.check_killing(lc, s.field, x, tol=killing_tol, frame=st.frame))
        yield s, lc, X, rep, st, T


def _spectrum_check(st: StructureTensors, tol: float) -> CheckResult:
    """Squared two-form of a unit Killing field: -4 across the field, 0 along it."""
    return verify.check_dxi_spectrum(st, reference=[-4.0] * (st.x.shape[1] - 2) + [0.0],
                                     tol=tol)


def _battery_round(cfg: RunConfig) -> VerificationReport:
    dec = None
    for rs, _, _, rep, st, T in _unit_killing(
            cfg, f"round unit Killing structure on S^{2 * cfg.n + 1}", verify.EXACT_TOL):
        rep.add(verify.check_sasakian(st, T, tol=verify.EXACT_TOL))
        rep.add(verify.check_kcontact(st))
        rep.add(_spectrum_check(st, tol=1e-8))
        rep.add(verify.check_nijenhuis(st, T))
        dec = dec or standard_decomposition(rs.isometry_algebra(), rs.j0)
        nz = [k for k, lam in enumerate(dec.rates) if lam > 0.5][0]
        rows = eigenfield_rows(rs.field, dec.blocks[nz], st, rate=dec.rates[nz])
        rep.add(CheckResult.from_residuals(
            "eigenfield_identities", np.stack(list(rows.values())), 1e-6,
            detail="orthogonality + bracket + eigenvalue identities over the whole "
                   "nonzero-rate block"))
    rep.extras["decomposition"] = dec.summary()
    return rep


def _battery_quaternionic(cfg: RunConfig) -> VerificationReport:
    qs = build_quaternionic(cfg.m)
    lc, X, rep = _open(cfg, qs.metric, qs.fields[0], 2 * cfg.m + 1,
                       f"right-multiplication contact triple on S^{4 * cfg.m + 3}")
    head = None  # the triple on X[:10], from the first chunk when it holds them
    for i, x in enumerate(_chunks(X)):
        with rep.stage("triple_psi"):
            triple = verify.triple_psi(lc, qs.fields, x)
        if i == 0 and len(x) >= len(X[:10]):
            head = triple.rows(slice(10))
        rep.add(verify.check_triple_orthonormality(lc, qs.fields, x, tol=1e-10))
        if i == 0:  # the fields alone
            rep.add(verify.check_triple_brackets(qs.fields, tol=1e-12))
        rep.add(verify.check_killing(lc, qs.generators, x, tol=verify.EXACT_TOL,
                                     name="triple_killing", frame=triple.F))
        with rep.stage("second_nabla_frame"):
            Ts = [lc.second_nabla_frame(f, x, triple.F) for f in qs.fields]
        rep.add(CheckResult.from_residuals(
            "triple_wedge_second_derivative",
            np.stack([verify.sasakian_residual(st, T) for st, T in zip(triple.sts, Ts)]),
            verify.EXACT_TOL))
        rep.add(verify.check_triple_products(triple, tol=1e-10, variant="aligned"))
        rep.add(verify.check_triple_products(triple, tol=1e-10, variant="transposed",
                                             expected="fail", fail_floor=1e-2,
                                             name="triple_products_transposed"))
        rep.add(verify.check_anticommutators(triple, tol=1e-10))
        rep.add(verify.check_squares(triple, tol=1e-10))
        rep.add(verify.check_pair_completion(lc, triple, tol=1e-6))

    sp = verify.horizontal_split(head or verify.triple_psi(lc, qs.fields, X[:10]))
    worst = float(np.max([sp.split.involution_residual, sp.split.symmetry_residual,
                          sp.invariance_residual, sp.commutation_residual,
                          sp.split.dim_plus]))
    dims = sorted(set(zip(sp.split.dim_plus.tolist(), sp.split.dim_minus.tolist())))
    rep.add(CheckResult.from_residuals(
        "horizontal_split_plus_trivial", worst, 1e-8,
        detail=f"(dim+, dim-) over samples: {dims}"))

    fixture = build_flip_fixture()
    with rep.stage("check_flip_quaternionic"):
        flip_checks, flip_extras = verify.check_flip_quaternionic(
            fixture.J, fixture.metric_matrix, fixture.projector_plus)
    for chk in flip_checks:
        rep.add(chk)
    rep.extras["flip_fixture"] = flip_extras
    return rep


def _battery_hopf(cfg: RunConfig) -> VerificationReport:
    bundle = build_hopf()
    rs = build_round(1)
    lc, X, rep = _open(cfg, rs.metric, rs.field, 1,
                       "circle-bundle lift of base rotation fields")
    kept = hopf_sample_filter(X)
    if len(kept) < HOPF_MIN_KEPT:
        raise ValueError(
            f"hopf-lift keeps {len(kept)} of {len(X)} samples after dropping "
            f"base points near the anchor antipode; the 4x4 linear fit of each "
            f"lift needs at least {HOPF_MIN_KEPT} (raise --samples)")

    gens = so3_basis()
    mats, defects = solve_lift(bundle, gens, kept)  # all three in one quadrature
    rep.add(CheckResult.from_residuals("lift_fit_defect", defects, 1e-8,
                                       detail="largest pointwise defect of the linear fit"))
    rep.add(CheckResult.from_residuals("lift_skewness",
                                       np.abs(mats + np.swapaxes(mats, 1, 2)).max(), 1e-10))
    for x in _chunks(X):
        rep.add(verify.check_killing(lc, mats, x, tol=1e-5, name="lift_killing"))

    # path independence: direct potential vs a two-leg path through a waypoint;
    # the waypoint's own potential (the first leg) rides in the direct quadrature
    waypoint = hopf_projection(kept[1])
    alt = replace(bundle, anchor=waypoint)
    ys = hopf_projection(kept[2:])
    # keep the second leg away from the waypoint's antipode
    ys = ys[ys @ waypoint / bundle.base_radius**2 >= -0.8][:8]
    n_path = len(ys)
    direct = lift_potential(bundle, gens[0], np.vstack([waypoint, ys]))
    worst_path = 0.0
    if n_path:
        two_leg = direct[0] + lift_potential(alt, gens[0], ys)
        worst_path = float(np.abs(direct[1:] - two_leg).max())
    rep.add(CheckResult.from_residuals("potential_path_independence", worst_path, 1e-6,
                                       detail=f"two-leg vs direct quadrature at {n_path} "
                                              f"targets"))

    # pushdown: fitted lifts project onto the base generators; the kernel of
    # the projection on span{lifts, circle generator} is the circle generator
    xs = kept[:40]
    ups = np.concatenate([mats, bundle.j0[None]])
    downs, push_res = fit_linear_generator(
        hopf_projection(xs), matvec(hopf_differential(xs), xs @ np.swapaxes(ups, 1, 2)))
    agree = float(np.abs(downs[:3] - gens).max())
    rep.add(CheckResult.from_residuals("pushdown_matches_base",
                                       max(float(push_res.max()), agree), 1e-8,
                                       detail="fitted lifts project onto the requested "
                                              "rotations"))
    u, sv, _ = np.linalg.svd(downs.reshape(4, -1))
    # left null vector = coefficients (in the {lift1..3, circle} basis) of the
    # combination the pushdown annihilates; it must be the circle generator
    kvec = u[:, -1]
    e_vert = np.array([0.0, 0.0, 0.0, 1.0])
    k_align = min(float(np.abs(kvec - e_vert).max()),
                  float(np.abs(kvec + e_vert).max()))
    k_res = max(float(sv[3]), k_align)
    rep.add(CheckResult.from_residuals("pushdown_kernel_is_vertical", k_res, 1e-6,
                                       detail=f"singular values {np.round(sv, 8).tolist()}"))

    # brackets close modulo the vertical direction: for each cyclic pair, the
    # lifted bracket less the lift of the base bracket is a multiple of j0
    i, j = [0, 1, 2], [1, 2, 0]
    flat = gens.reshape(3, -1)
    coef = field_bracket(gens[i], gens[j]).reshape(3, -1) @ flat.T / (flat * flat).sum(1)
    D = field_bracket(mats[i], mats[j]) - (coef @ mats.reshape(3, -1)).reshape(3, 4, 4)
    lam = D.reshape(3, -1) @ bundle.j0.ravel() / np.tensordot(bundle.j0, bundle.j0)
    rep.add(CheckResult.from_residuals("brackets_close_mod_vertical",
                                       np.abs(D - lam[:, None, None] * bundle.j0).max(), 1e-8))
    rep.extras["kept_samples"] = len(kept)
    return rep


def _deformed_scaling_check(ds, st: StructureTensors, tol: float) -> CheckResult:
    """Pinned transverse scaling: phi X = e^{-2F} J0 X and phi J0 X = -e^{2F} X
    at the points of st's sample that carry the transverse plane (X != 0);
    with none, inf."""
    X = ds.x_field.value(st.x)
    keep = rowdot(X, X) >= 1e-12
    phi, xs, X = st.phi_ambient[keep], st.x[keep], X[keep]
    F = ds.f_of(xs)[:, None]
    J0X = matvec(ds.j0, X)
    r1 = np.abs(matvec(phi, X) - np.exp(-2 * F) * J0X).max(axis=1)
    r2 = np.abs(matvec(phi, J0X) + np.exp(2 * F) * X).max(axis=1)
    return CheckResult.from_residuals(
        "deformed_transverse_scaling", np.maximum(r1, r2) if keep.any() else [np.inf], tol,
        detail=lambda r: f"{np.count_nonzero(r != np.inf)} samples carry the transverse plane")


def _invariance_killing(lc: LeviCivita, alg, X: np.ndarray) -> CheckResult:
    """Killing checks of an algebra's basis stack on X, all on one
    g-orthonormal frame, from one exact-flow quotient on a non-round metric."""
    return verify.check_killing(lc, alg.basis, X, tol=1e-5, name="invariance_algebra_killing")


def _battery_deformed(cfg: RunConfig) -> VerificationReport:
    for ds, lc, X, rep, st, T in _unit_killing(
            cfg, f"boundary-localized deformation on S^{2 * cfg.n + 1} (c={cfg.c})", 1e-6):
        lc_round = LeviCivita(build_round(cfg.n).metric, fd_step=cfg.fd_step)
        rep.add(verify.check_kcontact(st))
        rep.add(verify.check_contact_form_preserved(lc, lc_round, ds.field, st.x, tol=1e-8))
        rep.add(_spectrum_check(st, tol=1e-5))
        rep.add(_deformed_scaling_check(ds, st, tol=1e-6))
        rep.add(verify.check_sasakian(st, T, tol=verify.FD_TOL, expected="fail",
                                      fail_floor=GF_WEDGE_FLOOR))
        rep.add(verify.check_nijenhuis(st, T, expected="fail", fail_floor=GF_TORSION_FLOOR))

    alg = ds.isometry_algebra()
    rep.add(_invariance_killing(lc, alg, X[:40]))
    dec = standard_decomposition(alg, ds.j0)
    rep.extras["decomposition"] = dec.summary()
    rep.extras["support_fraction"] = np.count_nonzero(ds.f_of(X)) / len(X)
    return rep


def _battery_irregular(cfg: RunConfig) -> VerificationReport:
    for ir, lc, X, rep, st, T in _unit_killing(
            cfg, f"irregular unit Killing structure on S^{2 * cfg.n + 1} (a={cfg.a})", 1e-6):
        rep.add(verify.check_kcontact(st))
        rep.add(verify.check_sasakian(st, T, tol=verify.FD_TOL))
        rep.add(verify.check_nijenhuis(st, T))
        rep.add(_spectrum_check(st, tol=1e-5))
        rep.add(verify.check_transverse_derivative(lc, ir.field, ir.j0, st, tol=verify.FD_TOL))

    alg = ir.isometry_algebra()
    cen = centralizer_check(alg, np.stack([ir.j0, ir.j1]))
    cen_res = cen["max_commutator"] + (0.0 if all(cen["members"]) else 1.0)
    rep.add(CheckResult.from_residuals("central_pair", cen_res, 1e-10,
                                       detail="J0, J1 commute with and belong to the algebra"))
    rep.add(_invariance_killing(lc, alg, X[:40]))

    dec = standard_decomposition(alg, ir.field.matrix)
    rep.extras["decomposition"] = dec.summary()
    cls = classify(ir.profile())
    rep.extras["flow"] = {"kind": cls.kind,
                          "closure_torus_dim": cls.closure_torus_dim}
    probe = numeric_orbit_probe(ir.field.matrix, X[0], t_max=60.0)
    rep.extras["orbit_probe"] = {"returns": len(probe.return_times),
                                 "min_distance": probe.min_distance}
    return rep


_BATTERIES = {
    "round": _battery_round,
    "quaternionic": _battery_quaternionic,
    "hopf-lift": _battery_hopf,
    "gF": _battery_deformed,
    "irregular": _battery_irregular,
}
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
    fd_step: float = field(default=1e-4, metadata={"help": "finite-difference step", **_FLOAT})
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
    hopf-lift's lift quadrature, or ``sample_bytes`` of its dimension d, with
    the stencil on gF and irregular, whose metric is not round.  An n or m
    its builder refuses is left to it to name."""
    quaternionic = cfg.example == "quaternionic"
    if cfg.example == "hopf-lift":
        flags, d, per = "", 4, lift_point_bytes(HOPF_QUADRATURE_STEPS, 3)
    elif (cfg.m < 0) if quaternionic else (cfg.n < 1):
        return None
    else:
        flags, d = (f"--m {cfg.m} ", 4 * cfg.m + 4) if quaternionic else (f"--n {cfg.n} ",
                                                                           2 * cfg.n + 2)
        per = sample_bytes(d, stencil=cfg.example in ("gF", "irregular"))
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
# gF's n >= 3 and finite c, LeviCivita's fd_step, sample_sphere's count, the probe's
# t_max) are its public API's guards and are not restated.
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
           "--n 1 took 66 s (1.1 GB), round --n 2 30 s and gF 12 s",
           ("verify",), None, _work_refusal),
    Domain("--c", f"abs(c) >= {GF_MIN_C:g}",
           "from 5 to 200 samples wedge_second_derivative reads 2.0-4.0 abs(c) and cr_torsion "
           "0.96-2.0 abs(c)", ("verify",), ("gF",),
           lambda cfg, args: None if not abs(cfg.c) < GF_MIN_C else (  # NaN: build_deformed
               f"gF needs |c| >= {GF_MIN_C:g}, got c={cfg.c:g}: below it the defects of "
               f"wedge_second_derivative and cr_torsion, linear in |c|, miss their "
               f"expected-fail floors {GF_WEDGE_FLOOR:g} and {GF_TORSION_FLOOR:g}")),
    # a c or fd_step that build_deformed or LeviCivita refuses is left to them to name
    Domain("--samples", f"samples >= {GF_MIN_SAMPLES}",
           "over seeds 0-199 (c = 0.3, n = 3), 1 to 6 samples left 94, 45, 16, 6, 4 and 2 "
           "seeds with an expected-fail check under its floor, 7 to 12 none",
           ("verify",), ("gF",),
           lambda cfg, args: None if (cfg.samples >= GF_MIN_SAMPLES
                                      or not (np.isfinite(cfg.c) and cfg.fd_step > 0)) else (
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
    lc = LeviCivita(s.metric, fd_step=cfg.fd_step)
    alg = s.isometry_algebra()
    dec = standard_decomposition(alg, s.field.matrix)
    rep = VerificationReport(
        title=f"adjoint-square decomposition ({cfg.example}, S^{2 * cfg.n + 1})",
        config=dict(vars(cfg)))
    st = None
    if any(rate != 0.0 for rate in dec.rates):  # the eigenfield checks read st
        X = sample_sphere(cfg.n, min(cfg.samples, 40), cfg.seed).coords
        _step_canary(lc, s.field, X[0], rep)
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
    """An ArgumentParser that takes every string ``float()`` reads for a value.

    argparse alone reads a leading '-' as a negative number only before
    digits with at most a decimal point, and takes any other, as in ``--c
    -1e-3`` or ``--c -inf``, for an unknown flag, refusing the option for its
    missing value.  Subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None  # a value, not an option


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


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
