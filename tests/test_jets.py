"""The jets of the non-round metrics against an independent 50-digit oracle,
and the verdicts the jets mend.

``oracles.second_order_oracle`` restates gF's and irregular's metrics from
their docstrings and differentiates them at 50 digits (mpmath), with no
library code; ``LeviCivita.jet``, ``nabla_endo`` and ``second_nabla_frame``
must meet it to 1e-12 relative at rational points of the sphere.
"""

from __future__ import annotations

import functools
import json

import mpmath
import numpy as np
import pytest

from killinglab import LeviCivita, build_deformed, build_irregular, cli
from killinglab.constructions import smooth_transition, smooth_transition_derivatives
from killinglab.metrics import Jet, unit_jet
from killinglab.verify import FD_TOL

from oracles import (
    _complex_structure,
    _lower,
    gf_metric_mp,
    irregular_metric_mp,
    orthonormal_tangent_frame_mgs,
    rational_unit_point,
    second_order_oracle,
)

# stereographic preimages of the oracle's points, and gF's |X|^2 there: in the
# deformation's support past its transition band (F = c), in the band, and outside (F = 0)
GF_POINTS = {"support": (["-3/4", "1/2", "1/4", "3/4", "3/4", "1", "1"], 0.7679),
             "band": (["-3/4", "1/4", "3/4", "-1/2", "-1/4", "3/4", "1/4"], 0.2355),
             "outside": (["1/4", "-1/2", "-1/2", "1/2", "1/2", "3/4", "-3/4"], 0.0069)}
IRREGULAR_POINTS = {"a": ["1/2", "-1/3", "1/4", "2/3", "-1/5"],
                    "b": ["-1", "1/2", "1/3", "-1/4", "1/5"]}


def _rel(a, b) -> float:
    return float(np.abs(a - b).max() / max(1.0, float(np.abs(b).max())))


@functools.cache
def _oracle(label: str, where: str):
    """The structure s, its generator A as the oracle restates it, the float
    point x (1, d) of the rational point ``where``, the frame F there, and
    ``second_order_oracle``'s (M~, dM~, nabla xi, nabla^2 xi)."""
    if label == "gF":
        s, u = build_deformed(n=3, c=0.3), GF_POINTS[where][0]
        A, metric_mp = (np.array([_complex_structure(e) for e in np.eye(8)]).T,
                        gf_metric_mp(mpmath.mpf(3) / 10))
    else:
        s, u = build_irregular(n=2), IRREGULAR_POINTS[where]
        A = np.array([_complex_structure(e) for e in np.eye(6)]).T
        A[:2, :2] *= np.sqrt(2.0)  # J0 + a J1 with a = sqrt(2) - 1: the first pair at rate 1 + a
        with mpmath.workdps(50):
            metric_mp = irregular_metric_mp(mpmath.sqrt(2) - 1)
    x = rational_unit_point(u)
    xf = np.array([float(t) for t in x])[None]
    F = orthonormal_tangent_frame_mgs(xf[0])
    return s, A, xf, F, second_order_oracle(metric_mp, A, x, F)


def _against_the_oracle(label, where):
    """The library's M~, dM~, nabla xi and nabla^2 xi at the rational point
    ``where`` against the oracle's, each as its relative gap."""
    s, _, xf, F, want = _oracle(label, where)
    lc = LeviCivita(s.metric)
    jet = lc.jet(s.field, xf)
    got = (jet.g[0], jet.dg[0], lc.nabla_endo(s.field, xf)[0],
           lc.second_nabla_frame(s.field, xf, F[None])[0])
    return [_rel(a, b) for a, b in zip(got, want)]


@pytest.mark.parametrize("where", list(GF_POINTS))
def test_gf_jets_match_the_50_digit_oracle(where):
    ds, J0, xf, _, _ = _oracle("gF", where)
    X = ds.x_field.value(xf[0])
    assert X @ X == pytest.approx(GF_POINTS[where][1], abs=1e-4)
    assert np.array_equal(ds.field.matrix, J0)
    gaps = _against_the_oracle("gF", where)
    assert max(gaps) <= 1e-12, gaps


@pytest.mark.parametrize("where", list(IRREGULAR_POINTS))
def test_irregular_jets_match_the_50_digit_oracle(where):
    ir, A, _, _, _ = _oracle("irregular", where)
    assert np.abs(ir.field.matrix - A).max() <= 1e-15
    gaps = _against_the_oracle("irregular", where)
    assert max(gaps) <= 1e-12, gaps


@pytest.mark.parametrize("label, where", [("gF", w) for w in GF_POINTS]
                         + [("irregular", w) for w in IRREGULAR_POINTS])
def test_christoffel_matches_the_koszul_symbols_of_the_50_digit_oracle(label, where):
    """Gamma~ = M~^-1 (d_i g_jk + d_j g_ik - d_k g_ij) / 2 from the oracle's
    M~ and dM~, at one point and at a stack of one."""
    s, _, xf, _, (g, dg, _, _) = _oracle(label, where)
    koszul = np.einsum("ka,aij->kij", np.linalg.inv(g), _lower(dg))
    lc = LeviCivita(s.metric)
    for Gamma in (lc.christoffel(xf)[0], lc.christoffel(xf[0])):
        assert _rel(Gamma, koszul) <= 1e-12


def _report(*argv: str) -> dict:
    rep = cli._BATTERIES[argv[1]](cli.build_config(cli.make_parser().parse_args(
        ["verify", "--example", *argv[1:], "--samples", "200", "--seed", "42"])))
    return json.loads(rep.to_json(include_timestamp=False))


@pytest.mark.parametrize("a", ["3", "10"])
def test_a_large_irregular_rate_offset_passes(a):
    """At --a 3 the stencil's truncation read wedge_second_derivative 3.80e-5
    against its tolerance 1e-5, and --a 10 failed three checks, blaming the
    geometry; the jet reads rounding, which grows with the metric's spread
    (alpha = 1 / (1 + a |x_1|^2) falls to 1/11 at a = 10, where the wedge
    reads 1.8e-10)."""
    doc = _report("--example", "irregular", "--a", a)
    assert doc["verdicts"]["all_as_expected"], [c for c in doc["checks"] if not c["as_expected"]]
    assert max(c["max_residual"] for c in doc["checks"] if c["expected"] == "pass") <= 1e-9


@pytest.mark.parametrize("example", ["gF", "irregular"])
def test_every_expected_pass_residual_is_rounding_at_the_defaults(example):
    """At 200 samples and seed 42 the stencil left up to 5.4e-7 in an
    expected-pass residual; the jet leaves rounding, and gF's expected
    failures keep their values."""
    doc = _report("--example", example)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["verdicts"]["all_as_expected"]
    passes = [c["max_residual"] for c in checks.values() if c["expected"] == "pass"]
    assert max(passes) <= 1e-12
    if example == "gF":
        assert checks["wedge_second_derivative"]["max_residual"] == pytest.approx(1.353, abs=5e-4)
        assert checks["cr_torsion"]["max_residual"] == pytest.approx(0.5892, abs=5e-5)
        assert checks["wedge_second_derivative"]["max_residual"] > 1e4 * FD_TOL


# -- the jet algebra against closed forms ----------------------------------------------

@pytest.mark.parametrize("shape", [(), (5,)], ids=["point", "stack"])
def test_jet_products_and_maps_meet_closed_forms(shape):
    """For e = exp(|z|^2) and h = (L z) e (componentwise), at a point or a
    stack: grad e = 2 z e, Hess e = (2 Id + 4 z z^T) e, and d_l h_k = (L_kl +
    2 (L z)_k z_l) e, d_p d_l h_k = (2 L_kl z_p + 2 L_kp z_l + (L z)_k (2
    delta_pl + 4 z_p z_l)) e."""
    rng = np.random.default_rng(7)
    z, L = 0.4 * rng.standard_normal(shape + (4,)), rng.standard_normal((3, 4))
    zz = Jet.point(z)
    s = (zz * zz).sum()
    e = s.apply(np.exp(s.v), np.exp(s.v), np.exp(s.v))
    h = zz.lin(L) * e
    ev = np.exp((z * z).sum(-1))[..., None, None]
    assert np.allclose(e.d[..., 0], 2 * z * ev[..., 0], rtol=1e-14, atol=0)
    eye = np.eye(4)
    assert np.allclose(e.dd[..., 0], (2 * eye + 4 * z[..., :, None] * z[..., None, :]) * ev,
                       rtol=1e-14, atol=1e-15)
    Lz = z @ L.T
    d = (L.T + 2 * z[..., :, None] * Lz[..., None, :]) * ev
    zp = z[..., :, None, None]
    zl = z[..., None, :, None]
    dd = (2 * L.T[None, :, :] * zp + 2 * L.T[:, None, :] * zl
          + Lz[..., None, None, :] * (2 * eye[:, :, None] + 4 * zp * zl)) * ev[..., None]
    assert np.allclose(h.d, d, rtol=1e-13, atol=1e-14)
    assert np.allclose(h.dd, dd, rtol=1e-13, atol=1e-14)


def test_jet_stack_and_embed_place_components_and_axes():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((3, 2))
    zz = Jet.point(z)
    stacked = Jet.stack([zz, zz.lin(np.array([[0.0, -1.0], [1.0, 0.0]]))])
    assert (stacked.v.shape, stacked.d.shape, stacked.dd.shape) == ((3, 2, 2), (3, 2, 2, 2),
                                                                    (3, 2, 2, 2, 2))
    big = stacked.embed(5)
    assert (big.v.shape, big.d.shape, big.dd.shape) == ((3, 2, 5), (3, 2, 5, 5), (3, 2, 5, 5, 5))
    assert np.array_equal(big.v[..., 3:], stacked.v) and not big.v[..., :3].any()
    assert np.array_equal(big.d[..., 3:, 3:], stacked.d) and not big.d[..., :3, :].any()
    assert not big.d[..., :, :3].any() and not big.dd[..., :3, :, :].any()


def test_unit_jet_is_the_normalisation_differenced():
    """The 2-jet of y / |y| at unit x against central differences of it: the
    gap falls as h^2, to rounding."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 6))
    x /= np.linalg.norm(x, axis=1)[:, None]
    _, P, Y = unit_jet(x)

    def unit(y):
        return y / np.linalg.norm(y, axis=-1)[..., None]

    E = np.eye(6)
    for h in (1e-3, 5e-4):
        plus = unit(x[:, None, :] + h * E)
        minus = unit(x[:, None, :] - h * E)
        assert np.abs((plus - minus) / (2 * h) - P).max() <= 2 * h * h
        second = np.stack([(unit(x[:, None, :] + h * (E + E[i])) - unit(x[:, None, :] + h * E)
                            - unit(x + h * E[i])[:, None, :] + unit(x)[:, None, :]) / h ** 2
                           for i in range(6)], axis=1)
        assert np.abs(second - Y).max() <= 20 * h


@pytest.mark.parametrize("t", [-0.5, 0.0, 1e-4, 0.03, 0.3, 0.5, 0.81, 0.9999, 1.0, 1.7])
def test_smooth_transition_derivatives_meet_its_differences(t):
    """Value as ``smooth_transition``'s to rounding; derivatives as its
    central differences where it bends, and 0 on the flat ends."""
    f, f1, f2 = smooth_transition_derivatives(np.array([t]))
    assert f[0] == pytest.approx(smooth_transition(t), abs=1e-300, rel=1e-15)
    h = 1e-5
    if 1e-3 < t < 1.0 - 1e-3:
        ts = np.array([t - h, t, t + h])
        vals = smooth_transition(ts)
        assert f1[0] == pytest.approx((vals[2] - vals[0]) / (2 * h), rel=1e-7, abs=1e-12)
        # the second difference's rounding floor is eps / h^2 ~ 2e-6
        assert f2[0] == pytest.approx((vals[2] - 2 * vals[1] + vals[0]) / h ** 2, rel=1e-4,
                                      abs=1e-5)
    elif not 0.0 < t < 1.0:
        assert f1[0] == f2[0] == 0.0
