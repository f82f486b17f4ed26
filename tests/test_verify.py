"""Check functions: identities on the round structures, sign locks, splits."""

from __future__ import annotations

import inspect
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from killinglab import (
    WEDGE_SIGN,
    verify,
    LeviCivita,
    check_anticommutators,
    check_killing,
    check_kcontact,
    check_nijenhuis,
    check_sasakian,
    check_triple_products,
    check_unit_length,
    horizontal_split,
    sample_sphere,
)
from killinglab.metrics import (
    RICHARDSON_REL_TOL,
    NumericalQualityError,
    g_orthonormal_frame,
    general_field,
)
from killinglab.verify import (
    check_contact_form_preserved,
    check_dxi_spectrum,
    check_pair_completion,
    check_squares,
    check_tangency,
    check_triple_brackets,
    check_triple_orthonormality,
    complete_pair,
    covariant_canary,
    involution_split,
    measured_cyclic_sign,
    quaternionic_relation_residual,
)

from oracles import built, canary_drifts_per_point, g_orthonormal_frame_mgs


# -- basic round identities ----------------------------------------------------

def test_structure_reading_checks_have_one_path():
    """A check that reads a shared structure takes it; none builds its own
    when the argument is left out (check_killing's ``frame``/``lie`` aside)."""
    from killinglab import verify

    names = [n for n in vars(verify) if n.startswith("check_") and n != "check_killing"]
    names += ["nijenhuis_residual", "horizontal_split"]
    for name in names:
        for p in inspect.signature(getattr(verify, name)).parameters.values():
            assert not (p.name in ("st", "T", "frame", "triple") and p.default is None), (name, p)


def test_tangency_and_unit_length(round2, lc_round2, pts2):
    st = lc_round2.structure_at(round2.field, pts2)
    assert check_tangency(st).max() <= verify.TANGENCY_TOL
    assert check_unit_length(st).max() <= verify.UNIT_TOL


def test_killing_round_exact(round2, lc_round2, pts2):
    r = check_killing(lc_round2, round2.field, pts2)
    assert r.shape == (len(pts2),)
    assert r.max() < 1e-13


def test_killing_flags_zero_field(lc_round1, pts1):
    from killinglab import cli

    zero, X = general_field(lambda x: np.zeros_like(x)), np.asarray(pts1)
    c, row = SimpleNamespace(lc=lc_round1), cli._killing_row(
        "killing", 1e-10, lambda c: (zero, X, None, zero.value(X)), False)
    res, detail = row.detail(row.residual(c), c)
    assert res.max() <= 1e-12  # L_0 g = 0, vacuously
    assert detail == "degenerate: field vanishes on all samples"


def test_sasakian_round_exact(round2, lc_round2, pts2):
    r = check_sasakian(*built(lc_round2, round2.field, pts2))
    assert r.max() < 1e-13


def test_sasakian_round_fd(round1, lc_round1, pts1):
    r = check_sasakian(*built(lc_round1, general_field(round1.field.func), pts1[:8]))
    assert r.max() <= verify.FD_TOL


def test_wedge_sign_locked(round1, lc_round1, pts1):
    """The second-derivative identity holds for exactly one wedge sign."""
    assert WEDGE_SIGN == -1.0
    from killinglab import verify as V
    orig = V.WEDGE_SIGN
    try:
        V.WEDGE_SIGN = +1.0
        r = check_sasakian(*built(lc_round1, round1.field, pts1[:8]))
        assert r.max() > 1.0
    finally:
        V.WEDGE_SIGN = orig


def test_kcontact_round(round2, lc_round2, pts2):
    r = check_kcontact(lc_round2.structure_at(round2.field, pts2))
    assert r.max() < 1e-12


def test_nijenhuis_round(round2, lc_round2, pts2):
    r = check_nijenhuis(*built(lc_round2, round2.field, pts2[:10]))
    assert r.max() < 1e-9


def test_dxi_spectrum_round(round2, lc_round2, pts2):
    ref = [-4.0] * 4 + [0.0]
    r = check_dxi_spectrum(lc_round2.structure_at(round2.field, pts2[:10]), reference=ref)
    assert r.max() <= 1e-8


def test_dxi_spectrum_fails_a_two_form_with_a_symmetric_part(round2, lc_round2, pts2):
    """A symmetric part of 1e-3 in d(eta) moves the spectrum of the square at
    second order only; its asymmetry, first order, joins the residual."""
    st = lc_round2.structure_at(round2.field, pts2[:10])
    S = np.random.default_rng(8).standard_normal(st.dxi.shape)
    sym = 0.5e-3 * (S + np.swapaxes(S, -1, -2))
    # the check reads e = 2 phi_frame = (F^T d(eta) F)^T, so the part enters through phi_frame
    phi = st.phi_frame + 0.5 * np.swapaxes(st.frame, -1, -2) @ sym @ st.frame
    r = check_dxi_spectrum(replace(st, phi_frame=phi), reference=[-4.0] * 4 + [0.0])
    assert r.max() > 1e-4


def test_dxi_spectrum_shape_mismatch(round2, lc_round2, pts2):
    with pytest.raises(ValueError):
        check_dxi_spectrum(lc_round2.structure_at(round2.field, pts2[:2]),
                           reference=[-4.0, 0.0])


def test_covariant_canary_default_step(round1, lc_round1, pts1):
    """Returns the derivative norm (O(1) here) without raising at sane steps."""
    out = covariant_canary(lc_round1, round1.field, pts1[0])
    assert np.isfinite(out)
    assert out < 2.0


@pytest.mark.parametrize("step", [1e-13, 3e-7, 5e-7, 1e-6, 1e-4, 2e-4, 5e-3])
@pytest.mark.parametrize("structure", ["deformed", "irregular"])
def test_covariant_canary_raises_exactly_when_an_oracle_drift_exceeds_the_bound(
        request, structure, step):
    """At the first point of the 200-sample seed-42 sample, where the gF and
    irregular batteries run it, the canary raises iff either drift of the
    per-point oracle exceeds RICHARDSON_REL_TOL, and names the first that
    does.  The frame is the library's, checked against the reference one."""
    s = request.getfixturevalue(structure)
    x = sample_sphere(s.dim // 2 - 1, 200, seed=42).coords[0]
    M = s.metric.matrix_at(x)
    F = g_orthonormal_frame(M, x)
    assert np.abs(F - g_orthonormal_frame_mgs(M, x)).max() < 1e-12
    lc = LeviCivita(s.metric, step)
    over = [r for r in canary_drifts_per_point(lc, s.field, x, F) if r > RICHARDSON_REL_TOL]
    if not over:
        assert np.isfinite(covariant_canary(lc, s.field, x))
        return
    with pytest.raises(NumericalQualityError, match=re.escape(f"rel drift {over[0]:.3e} at")):
        covariant_canary(lc, s.field, x)


# -- triple checks --------------------------------------------------------------

def test_triple_orthonormality(quat1, pts3):
    from killinglab import LeviCivita
    lc = LeviCivita(quat1.metric)
    r = check_triple_orthonormality(lc.structure_at(quat1.generators, pts3[:10]))
    assert r.max() <= 1e-10


def test_triple_brackets_exact(quat1):
    gens = quat1.generators
    eps = measured_cyclic_sign(gens, tol=1e-6)
    assert check_triple_brackets(gens, eps) <= 1e-12
    assert check_triple_brackets(gens, -eps) >= 1.0  # the residual reads the sign given


def test_measured_cyclic_sign_is_uniform(quat0, quat1):
    assert measured_cyclic_sign(quat0.generators) in (-1, +1)
    assert measured_cyclic_sign(quat1.generators) in (-1, +1)


def test_triple_products_aligned_vs_transposed(quat1, pts3):
    """Exactly one product convention matches the realized frame."""
    from killinglab import LeviCivita
    lc = LeviCivita(quat1.metric)
    triple = lc.structure_at(quat1.generators, pts3[:8])
    eps = measured_cyclic_sign(quat1.generators)
    ok = check_triple_products(triple, eps, variant="aligned")
    bad = check_triple_products(triple, eps, variant="transposed")
    assert ok.max() <= 1e-10
    assert bad.max() > 1.0


def test_triple_products_rejects_unknown_variant(quat1, pts3):
    from killinglab import LeviCivita
    lc = LeviCivita(quat1.metric)
    with pytest.raises(ValueError):
        check_triple_products(lc.structure_at(quat1.generators, pts3[:2]), 1, variant="upside")


def test_anticommutators_and_squares(quat1, pts3):
    from killinglab import LeviCivita
    lc = LeviCivita(quat1.metric)
    triple = lc.structure_at(quat1.generators, pts3[:8])
    assert check_anticommutators(triple).max() <= 1e-10
    assert check_squares(triple).max() <= 1e-10


def test_pair_completion(quat1, pts3):
    from killinglab import LeviCivita
    lc = LeviCivita(quat1.metric)
    gens = complete_pair(quat1.generators)
    unit, products, plus, minus = check_pair_completion(lc.structure_at(gens, pts3[:8]), gens)
    assert max(unit.max(), products.max(), min(plus.max(), minus.max())) <= 1e-6


# -- splits ----------------------------------------------------------------------

def test_involution_split_of_product_operator(quat1, pts3):
    """phi_1 phi_2 phi_3 restricted to the common transverse space is an
    involution; on the round S^7 triple it is -Id there (empty + block)."""
    from killinglab import LeviCivita
    lc = LeviCivita(quat1.metric)
    split = horizontal_split(lc.structure_at(quat1.generators, pts3[0]))
    assert split.dim_plus == 0
    assert split.dim_minus == 4
    assert split.ok


def test_involution_split_s3_is_empty(quat0, pts1):
    from killinglab import LeviCivita
    lc = LeviCivita(quat0.metric)
    split = horizontal_split(lc.structure_at(quat0.generators, pts1[0]))
    assert split.dim_plus == 0
    assert split.dim_minus == 0
    assert split.ok


def test_involution_split_identity():
    s = involution_split(np.eye(3))
    assert s.dim_plus == 3 and s.dim_minus == 0 and s.ok


def test_quaternionic_relation_residual_detects_break():
    J1 = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    bad = [J1, J1, J1]  # J1 J1 = -Id != +-J1: relations cannot hold
    _, res = quaternionic_relation_residual(bad)
    assert res > 0.5


# -- contact-form comparison ------------------------------------------------------

def test_contact_form_preserved_round_vs_itself(round2, lc_round2, pts2):
    r = check_contact_form_preserved(lc_round2, lc_round2, round2.field,
                                     lc_round2.structure_at(round2.field, pts2[:6]))
    assert r.max() <= 1e-10
