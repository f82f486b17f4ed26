"""The sample as one (N, d) array: the one-pass sampler against the per-row
loop in tests/oracles.py, and the checks' single entry conversion, which
takes an array or SpherePoints alike and refuses a sample that is empty,
not 2-D or off the unit sphere."""

from __future__ import annotations

import numpy as np
import pytest

from killinglab.algebra import eigenfield_residuals, standard_decomposition
from killinglab.metrics import LeviCivita
from killinglab.sphere import sample_sphere
from killinglab.verify import (check_killing, check_nijenhuis, check_triple_products,
                               measured_cyclic_sign)

from oracles import built, sample_sphere_loop


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("pole_margin", [1e-3, 0.5, 1.2])
def test_one_pass_sampler_matches_row_loop(n, pole_margin):
    for count in (1, 63, 64, 65, 200):
        for seed in (0, 7, 42):
            got = sample_sphere(n, count, seed, pole_margin=pole_margin).coords
            assert np.array_equal(got, sample_sphere_loop(n, count, seed, pole_margin))


def test_sample_coords_read_only_and_arrays_a_writable_copy():
    s = sample_sphere(2, 30, seed=5)
    assert s.coords.shape == (30, 6) and (s.count, s.dim) == (30, 6)
    assert not s.coords.flags.writeable
    with pytest.raises(ValueError):
        s.coords[0, 0] = 2.0
    a = s.arrays()
    assert a.flags.writeable and np.array_equal(a, s.coords)
    a[0, 0] = 2.0
    assert s.coords[0, 0] != 2.0
    assert np.array_equal(np.stack([p.coords for p in s.points]), s.coords)


def _three_forms(n: int, count: int, seed: int):
    s = sample_sphere(n, count, seed)
    return s.coords, s.points, list(s.points)


def test_checks_agree_on_array_and_point_samples(round2, lc_round2, quat1):
    forms = _three_forms(2, 12, 3)
    for check in (lambda X: check_killing(lc_round2, round2.field, X),
                  lambda X: check_nijenhuis(*built(lc_round2, round2.field, X))):
        results = [check(X) for X in forms]
        assert np.array_equal(results[0], results[1]) and np.array_equal(results[0], results[2])

    lc_q = LeviCivita(quat1.metric)
    eps = measured_cyclic_sign(quat1.generators)
    results = [check_triple_products(lc_q.structure_at(quat1.generators, X), eps)
               for X in _three_forms(3, 12, 3)]
    assert np.array_equal(results[0], results[1]) and np.array_equal(results[0], results[2])

    dec = standard_decomposition(round2.isometry_algebra(), round2.j0)
    k = next(i for i, lam in enumerate(dec.rates) if lam > 0.5)
    results = [eigenfield_residuals(round2.field, dec.blocks[k],
                                    lc_round2.structure_at(round2.field, X),
                                    rate=dec.rates[k]) for X in forms]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("name", ["killing", "cr_torsion", "triple_products_aligned"])
def test_checks_refuse_bad_samples_by_name(name, round2, lc_round2, quat1):
    """The sample enters check_killing as its points, and the torsion and
    triple checks through structure_at, which takes one point (d,) too: a
    stack of samples is its bad shape.  A NaN row is off the sphere too
    (check_killing read max_residual nan on one and failed the geometry)."""
    n = 3 if name == "triple_products_aligned" else 2
    X = sample_sphere(n, 6, seed=1).arrays()
    if name == "killing":
        run = lambda X: check_killing(lc_round2, round2.field, X)
        owner, bad_shape = "check 'killing'", X[0]
    elif name == "cr_torsion":
        run = lambda X: check_nijenhuis(*built(lc_round2, round2.field, X))
        owner, bad_shape = "structure_at", X[None]
    else:
        lc_q = LeviCivita(quat1.metric)
        eps = measured_cyclic_sign(quat1.generators)
        run = lambda X: check_triple_products(lc_q.structure_at(quat1.generators, X), eps)
        owner, bad_shape = "structure_at", X[None]
    with pytest.raises(ValueError, match=f"{owner} needs .*an \\(N, d\\) sample"):
        run(bad_shape)
    scaled = X.copy()
    scaled[2] *= 1.001
    with pytest.raises(ValueError, match=f"{owner} got a sample off the unit sphere"):
        run(scaled)
    scaled[2] = np.nan  # ||x| - 1| is NaN, which a test of the form off > tol lets through
    with pytest.raises(ValueError, match=f"{owner} got a sample off the unit sphere: .* = nan"):
        run(scaled)
    with pytest.raises(ValueError, match=f"{owner} got no samples to evaluate"):
        run(X[:0])

