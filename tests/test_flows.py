"""Exact rate arithmetic, orbit classification, and the numeric orbit probe."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killinglab import ExactScalar, RotationProfile, classify, numeric_orbit_probe, parse_rate
from killinglab import cli, flows
from killinglab.flows import COARSE_STEP, OrbitProbe
from killinglab.constructions import build_irregular
from killinglab.flows import rotation_profile

from oracles import orbit_min_distance_grid, orbit_min_distance_mp

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def block_gen(*rates: float) -> np.ndarray:
    """Block-diagonal skew generator with the given plane rates."""
    d = 2 * len(rates)
    out = np.zeros((d, d))
    for i, r in enumerate(rates):
        out[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = r * J2
    return out


def profile(*specs: str) -> RotationProfile:
    return RotationProfile(tuple(parse_rate(s) for s in specs))


# -- exact scalars -----------------------------------------------------------

def test_parse_rate_forms():
    assert parse_rate("3").value() == 3.0
    assert parse_rate("-5/2").value() == -2.5
    r = parse_rate("irr:sqrt2m1")
    assert abs(r.value() - (math.sqrt(2) - 1)) < 1e-15
    assert not r.is_rational
    g = parse_rate("irr:golden")
    assert abs(g.value() - (1 + math.sqrt(5)) / 2) < 1e-15


def test_parse_rate_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rate("irr:nope")
    with pytest.raises(ValueError):
        parse_rate("two")


def test_exact_scalar_rational_tag_dropped():
    s = ExactScalar(Fraction(1, 2), Fraction(0), "sqrt2")
    assert s.tag is None and s.is_rational


def test_exact_scalar_unknown_tag():
    with pytest.raises(ValueError):
        ExactScalar(Fraction(1), Fraction(1), "sqrt7")


def test_mixed_tags_rejected():
    p = RotationProfile((parse_rate("irr:sqrt2m1"), parse_rate("irr:golden")))
    with pytest.raises(ValueError, match="mixed"):
        classify(p)


def test_zero_rate_rejected():
    with pytest.raises(ValueError, match="zero"):
        classify(profile("1", "0"))


# -- classification ----------------------------------------------------------

def test_classify_regular():
    c = classify(profile("1", "1"))
    assert c.kind == "regular"
    assert c.closure_torus_dim == 1
    assert c.integer_profile == (1, 1)
    assert abs(c.generic_period - 2 * math.pi) < 1e-15
    assert c.exceptional_periods == ()


def test_classify_quasi_regular_2_3():
    c = classify(profile("2", "3"))
    assert c.kind == "quasi-regular"
    assert c.integer_profile == (2, 3)
    assert abs(c.generic_period - 2 * math.pi) < 1e-15
    assert sorted(c.exceptional_periods) == pytest.approx(
        sorted([2 * math.pi / 3, math.pi]))


def test_classify_1_2_3():
    c = classify(profile("1", "2", "3"))
    assert c.kind == "quasi-regular"
    assert c.integer_profile == (1, 2, 3)
    assert sorted(c.exceptional_periods) == pytest.approx(
        sorted([2 * math.pi / 3, math.pi]))


def test_classify_rational_non_integer():
    c = classify(profile("-5/2", "5/3"))
    assert c.kind == "quasi-regular"
    assert c.integer_profile in ((-3, 2), (3, -2))
    assert abs(c.generic_period - 12 * math.pi / 5) < 1e-12
    assert sorted(c.exceptional_periods) == pytest.approx(
        sorted([12 * math.pi / 15, 12 * math.pi / 10]))


def test_classify_irregular():
    one = parse_rate("1")
    irr = ExactScalar(Fraction(1), Fraction(1), "sqrt2")  # 1 + sqrt2
    c = classify(RotationProfile((irr, one)))
    assert c.kind == "irregular"
    assert c.closure_torus_dim == 2
    assert c.integer_profile is None
    assert c.generic_period is None


def test_classify_dependent_irrationals_span_rank_two():
    # rates 1, sqrt2, 1+sqrt2 are Q-dependent: still a 2-torus closure
    one = parse_rate("1")
    r2 = ExactScalar(Fraction(0), Fraction(1), "sqrt2")
    r3 = ExactScalar(Fraction(1), Fraction(1), "sqrt2")
    c = classify(RotationProfile((r3, r2, one)))
    assert c.kind == "irregular"
    assert c.closure_torus_dim == 2


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=Fraction(1, 7), max_value=Fraction(9, 2)))
def test_classify_scale_invariance(c):
    base = profile("2", "3")
    scaled = base.scaled(c)
    k0, k1 = classify(base), classify(scaled)
    assert k0.kind == k1.kind
    assert k0.integer_profile == k1.integer_profile
    assert k1.generic_period == pytest.approx(k0.generic_period / float(c))


def test_rotation_profile_validates_spectrum():
    gen = block_gen(2.0, 3.0)
    prof = rotation_profile(gen, [parse_rate("2"), parse_rate("3")])
    assert prof.values() == (2.0, 3.0)
    with pytest.raises(ValueError, match="disagree"):
        rotation_profile(gen, [parse_rate("2"), parse_rate("5")])
    with pytest.raises(ValueError, match="need"):
        rotation_profile(gen, [parse_rate("2")])


# -- numeric orbit probe -----------------------------------------------------

def test_probe_regular_orbit_returns_at_2pi():
    gen = block_gen(1.0, 1.0)
    x0 = np.array([0.6, 0.0, 0.8, 0.0])
    probe = numeric_orbit_probe(gen, x0, t_max=8.0)
    assert probe.return_times[0] == pytest.approx(2 * math.pi, abs=1e-5)


def test_probe_generic_vs_exceptional_2_3():
    gen = block_gen(2.0, 3.0)
    generic = np.array([0.6, 0.0, 0.8, 0.0])
    pg = numeric_orbit_probe(gen, generic, t_max=8.0)
    assert pg.return_times[0] == pytest.approx(2 * math.pi, abs=1e-5)
    exceptional = np.array([0.0, 0.0, 0.6, 0.8])  # rate-3 plane only
    pe = numeric_orbit_probe(gen, exceptional, t_max=8.0)
    assert pe.return_times[0] == pytest.approx(2 * math.pi / 3, abs=1e-5)
    # subsequent returns at multiples of the plane period
    diffs = np.diff(pe.return_times)
    assert np.abs(diffs - 2 * math.pi / 3).max() < 1e-4


def test_probe_irregular_never_returns():
    gen = block_gen(math.sqrt(2.0), 1.0)
    x0 = np.array([0.6, 0.0, 0.8, 0.0])
    probe = numeric_orbit_probe(gen, x0, t_max=200.0)
    assert probe.return_times == ()
    assert probe.min_distance > 0.01
    # independent dense-grid oracle sees the same floor
    assert orbit_min_distance_grid(gen, x0, 200.0) > 0.01


def test_probe_min_distance_matches_grid_oracle():
    gen = block_gen(math.sqrt(2.0), 1.0)
    x0 = np.array([0.6, 0.0, 0.8, 0.0])
    probe = numeric_orbit_probe(gen, x0, t_max=60.0)
    oracle = orbit_min_distance_grid(gen, x0, 60.0)
    assert probe.min_distance <= oracle + 1e-9
    assert probe.min_distance > 0.5 * oracle


def _orthogonal(seed: int, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q


def _rotated(gen: np.ndarray, seed: int) -> np.ndarray:
    """gen conjugated by a seeded orthogonal matrix: the same rates in a
    basis that is not block-diagonal."""
    q = _orthogonal(seed, gen.shape[0])
    return q @ gen @ q.T


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _plane_weights(q: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Squared norm of x0 in each invariant plane of q @ block_gen(...) @ q.T."""
    y = q.T @ x0
    return y[0::2] ** 2 + y[1::2] ** 2


GOLDEN = (1 + math.sqrt(5.0)) / 2
SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize("gen, rates, q, x0, t_max", [
    (block_gen(SQRT2, 1.0), (SQRT2, 1.0), np.eye(4), _unit([0.6, 0.0, 0.8, 0.0]), 60.0),
    (_rotated(block_gen(1.0, GOLDEN), 1), (1.0, GOLDEN), _orthogonal(1, 4),
     _unit([1, 2, -1, 1]), 50.0),
    (build_irregular(n=2).field.matrix, (SQRT2, 1.0, 1.0), np.eye(6),
     _unit([0.5, 0.1, -0.4, 0.3, 0.6, -0.2]), 60.0),
    (_rotated(block_gen(SQRT2, 1.0, 1.0), 2), (SQRT2, 1.0, 1.0), _orthogonal(2, 6),
     _unit([1, -2, 1, 3, 0, 1]), 60.0),
    (_rotated(block_gen(GOLDEN, 1.0, 1.0, 1.0), 4), (GOLDEN, 1.0, 1.0, 1.0), _orthogonal(4, 8),
     _unit([2, -1, 1, 3, -2, 1, 1, -1]), 60.0),
    (_rotated(block_gen(SQRT2, 0.0, 1.0), 5), (SQRT2, 0.0, 1.0), _orthogonal(5, 6),
     _unit([1, 2, -2, 1, 1, -1]), 60.0),
], ids=["d4-sqrt2", "d4-golden-rotated", "d6-irregular", "d6-repeated-rotated",
        "d8-repeated-golden-rotated", "d6-zero-rate-plane-rotated"])
def test_probe_agrees_with_the_grid_oracle(gen, rates, q, x0, t_max):
    """The closed-form distance against the oracle's complex-eig propagation
    on a 200 000-point grid, and its refined minimum against the plane-rate
    distance minimised at 30 digits.  The probe folds iξ's spectrum to one
    column per distinct positive rate: d = 6 and 8 hold repeated rates
    (1 + a, 1, ..., 1), and one d = 6 generator a plane of rate 0, whose
    eigenvalues drop out."""
    assert np.abs(q @ block_gen(*rates) @ q.T - gen).max() < 1e-15
    probe = numeric_orbit_probe(gen, x0, t_max=t_max)
    oracle = orbit_min_distance_grid(gen, x0, t_max)
    assert probe.return_times == ()
    assert probe.min_distance <= oracle + 1e-12    # refined minima sit below the grid's
    assert oracle - probe.min_distance < 1e-6      # ... by the grid's resolution only
    exact = orbit_min_distance_mp(rates, _plane_weights(q, x0), 0.5, t_max)
    assert abs(probe.min_distance - exact) < 1e-12


def test_probe_finds_the_closest_approach_at_its_longest_horizon():
    """Rates (1, golden) over the probe's largest grid, 2**21 points of step
    2 pi / 512 / golden: the closest approach, near t = 10034.25, is
    6.54092e-4, where the grid alone reads 7.689e-4."""
    x0 = _unit([1, 0, 1, 0])
    probe = numeric_orbit_probe(block_gen(1.0, GOLDEN), x0, t_max=15905.0)
    exact = orbit_min_distance_mp((1.0, GOLDEN), (0.5, 0.5), 10034.2, 10034.3)
    assert probe.return_times == ()
    assert abs(probe.min_distance - exact) < 1e-12


@pytest.mark.parametrize("rates, period, count", [(("3", "6"), 2 * math.pi / 3, 28),
                                                 (("5",), 2 * math.pi / 5, 47)],
                         ids=["3-6", "5"])
def test_probe_reports_every_return_off_its_grid(capsys, rates, period, count):
    """Every return up to the horizon, the k-th at k periods; none of them
    falls on the 2 pi / 512 grid."""
    assert cli.main(["classify-flow", *rates, "--probe", "--horizon", "60",
                     "--format", "json", "--no-timestamp"]) == 0
    times = json.loads(capsys.readouterr().out)["extras"]["orbit_probe"]["return_times"]
    assert len(times) == count == int(60.0 / period)
    assert np.abs(np.array(times) - period * np.arange(1, count + 1)).max() < 1e-12


def test_period_check_fails_a_probe_that_drops_later_returns(monkeypatch, capsys):
    """Every return is matched with its multiple of the period, so a probe
    that reports only the first of the 28 returns fails the check."""
    probe = flows.numeric_orbit_probe

    def first_return_only(*args, **kwargs):
        p = probe(*args, **kwargs)
        return OrbitProbe(p.return_times[:1], p.min_distance, p.t_max, p.step)

    monkeypatch.setattr(cli, "numeric_orbit_probe", first_return_only)
    assert cli.main(["classify-flow", "3", "6", "--probe", "--horizon", "60",
                     "--format", "json", "--no-timestamp"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["max_residual"] == math.inf


@pytest.mark.parametrize("rates, period, k", [(("3", "6"), 2 * math.pi / 3, 28),
                                              (("1",), 2 * math.pi, 2),
                                              (("1", "2"), 2 * math.pi, 5)],
                         ids=["3-6-at-28T", "1-at-2T", "1-2-at-5T"])
def test_period_check_at_a_horizon_on_a_multiple_of_the_period(capsys, rates, period, k):
    """At t_max = kT the last grid time lies within half a step of kT, so the
    grid does not hold that return: k - 1 returns, and the check passes."""
    n = math.ceil(k * period / COARSE_STEP)
    assert abs(k * period - n * COARSE_STEP) < COARSE_STEP / 2  # kT in the last half step
    assert cli.main(["classify-flow", *rates, "--probe", "--horizon", repr(k * period),
                     "--format", "json", "--no-timestamp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    times = doc["extras"]["orbit_probe"]["return_times"]
    assert len(times) == k - 1
    assert np.abs(np.array(times) - period * np.arange(1, k)).max() < 1e-12
    assert doc["checks"][0]["max_residual"] < 1e-12


@pytest.mark.parametrize("times, res", [
    ((), math.inf),
    ((2 * math.pi,), math.inf),                                     # the second is missing
    ((2 * math.pi, 4 * math.pi, 4 * math.pi + 0.5), math.inf),      # an extra return
    ((2 * math.pi + 1e-9, 4 * math.pi - 3e-9), 3e-9),
], ids=["none", "missing", "extra", "all"])
def test_period_residual_reads_inf_on_a_missing_or_extra_return(times, res):
    """Over t_max = 4 pi + 1 the grid holds the multiples 2 pi and 4 pi."""
    probe = OrbitProbe(times, 0.0, 4 * math.pi + 1.0, COARSE_STEP)
    assert cli._period_residual(probe, 2 * math.pi) == pytest.approx(res)


_RATIONAL_RATES = st.integers(1, 6).flatmap(
    lambda q: st.builds(Fraction, st.integers(-200 * q, 200 * q).filter(bool), st.just(q)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_RATIONAL_RATES, min_size=1, max_size=3))
def test_probe_returns_are_the_multiples_of_the_exact_period_its_grid_holds(rates):
    """Rational profiles p/q (q <= 6, |rates| <= 200): the probe's returns are
    the multiples kT of classify's exact generic period T that its grid of step
    2 pi / 512 / max(1, w_max) holds, 1.5 < kT / step < n - 1/2, each to 1e-12.
    The horizon is 2.5 periods, or 200 000 grid steps where that is shorter."""
    period = classify(RotationProfile(tuple(ExactScalar(r) for r in rates))).generic_period
    step = COARSE_STEP / max(1.0, max(abs(float(r)) for r in rates))
    t_max = min(2.5 * period, 200_000 * step)
    x0 = np.tile([1.0, 0.0], len(rates)) / np.sqrt(len(rates))
    probe = numeric_orbit_probe(block_gen(*map(float, rates)), x0, t_max=t_max)
    assert probe.step == pytest.approx(step, rel=1e-15)
    n = math.ceil(t_max / probe.step)
    held = [k * period for k in range(1, 4) if 1.5 < k * period / probe.step < n - 0.5]
    assert len(probe.return_times) == len(held)
    assert all(abs(t - kt) < 1e-12 for t, kt in zip(probe.return_times, held))


@pytest.mark.parametrize("rates, horizon", [(("60",), None), (("100",), "10"),
                                            (("49",), None), (("3", "199/2"), None)])
def test_fast_flows_return_on_the_rate_scaled_grid(capsys, rates, horizon):
    """A rate-60 flow has no grid point of step 2 pi / 512 within 0.25 of its
    return; on the rate-scaled grid every return is found and the period
    check passes."""
    argv = ["classify-flow", *rates, "--probe"] + (["--horizon", horizon] if horizon else [])
    assert cli.main(argv + ["--format", "json", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["max_residual"] < 1e-12


def test_probe_return_on_a_repeated_rate_generator():
    gen = _rotated(block_gen(1.0, 1.0, 2.0), 3)
    x0 = _unit([1, 0, 2, -1, 1, 1])
    probe = numeric_orbit_probe(gen, x0, t_max=8.0)
    assert probe.return_times[0] == pytest.approx(2 * math.pi, abs=1e-9)
    assert probe.min_distance <= orbit_min_distance_grid(gen, x0, 8.0) + 1e-12


@pytest.mark.parametrize("xi", [block_gen(1.0, 2.0) + 0.1 * np.eye(4), np.ones((4, 4)),
                                np.zeros((4, 3)), np.zeros(4)],
                         ids=["skew-plus-scalar", "symmetric", "not-square", "vector"])
def test_probe_refuses_a_non_skew_generator(xi):
    with pytest.raises(ValueError, match="numeric_orbit_probe needs a skew generator"):
        numeric_orbit_probe(xi, _unit([1, 0, 1, 0]), t_max=8.0)


@pytest.mark.parametrize("t_max", [math.inf, 1e12, math.nan, 0.0, -1.0])
def test_probe_refuses_a_t_max_off_its_grid_by_name(t_max):
    """Refused before any grid time is built: 1e12 would be 8.1e13 points."""
    with pytest.raises(ValueError, match=r"numeric_orbit_probe needs a t_max over 0 and "
                                         r"at most 25735\.9 .*, got t_max="):
        numeric_orbit_probe(block_gen(1.0, 2.0), _unit([1, 0, 1, 0]), t_max=t_max)


def test_probe_takes_a_t_max_up_to_its_point_bound(monkeypatch):
    monkeypatch.setattr(flows, "PROBE_MAX_POINTS", 1000)
    gen, x0 = block_gen(1.0, 2.0), _unit([1, 0, 1, 0])
    t_max = 1000 * numeric_orbit_probe(gen, x0, t_max=1.0).step  # step 2 pi / 512 / 2
    assert numeric_orbit_probe(gen, x0, t_max=t_max).t_max == t_max
    with pytest.raises(ValueError, match="a grid of at most 1000 points"):
        numeric_orbit_probe(gen, x0, t_max=1.000001 * t_max)


@pytest.mark.parametrize("chunk", [1, 2, 7, 1000])
def test_probe_does_not_depend_on_its_chunk_size(chunk):
    """A chunk boundary may fall next to any grid point, a near-return among
    them; at one point a chunk every grid point sits at one."""
    gen, x0 = block_gen(1.0, 2.0), _unit([1, 0, 1, 0])
    assert numeric_orbit_probe(gen, x0, t_max=60.0, chunk=chunk) \
        == numeric_orbit_probe(gen, x0, t_max=60.0)
