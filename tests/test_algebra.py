"""Isometry algebras, the squared-adjoint splitting, and eigenfield identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killinglab import (
    DegenerateClusterError,
    IsometryAlgebra,
    LeviCivita,
    build_round,
    field_bracket,
    killing_inner,
    so_basis,
    standard_decomposition,
)
from killinglab.algebra import (
    CLUSTER_TOL,
    _cluster_cuts,
    centralizer_check,
    eigenfield_residuals,
)
from killinglab.constructions import J2
from killinglab.metrics import linear_field

from oracles import (
    adjoint_rates,
    brute_force_decomposition,
    eigenfield_residuals_per_generator,
)


def test_so_basis_dimension_and_skewness():
    for d in (4, 6, 8):
        basis = so_basis(d)
        assert len(basis) == d * (d - 1) // 2
        for B in basis:
            assert np.array_equal(B, -B.T)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_so_basis_is_the_e_ij_stack_bit_for_bit(d):
    """E_ij (i < j, row-major) has +1 at (i, j) and -1 at (j, i)."""
    want = []
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d))
            E[i, j] = 1.0
            E[j, i] = -1.0
            want.append(E)
    got = so_basis(d)
    assert got.shape == (d * (d - 1) // 2, d, d)
    assert not got.flags.writeable
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


def test_algebra_basis_is_the_given_stack():
    """The stack is kept as a read-only view: no copy, and the caller's array
    stays writable."""
    stack = np.array(so_basis(4))
    alg = IsometryAlgebra(stack)
    assert np.shares_memory(alg.basis, stack)
    assert alg.basis.shape == stack.shape and not alg.basis.flags.writeable
    assert stack.flags.writeable


def test_bracket_closure_so4():
    alg = IsometryAlgebra(so_basis(4))
    for A in alg.basis:
        for B in alg.basis:
            assert alg.contains(field_bracket(A, B))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_jacobi_identity(i, j, k):
    basis = so_basis(4)
    a, b, c = basis[i], basis[j], basis[k]
    total = (field_bracket(field_bracket(a, b), c)
             + field_bracket(field_bracket(b, c), a)
             + field_bracket(field_bracket(c, a), b))
    assert np.abs(total).max() < 1e-14


def test_killing_inner_positive_definite():
    basis = so_basis(6)
    G = np.array([[killing_inner(a, b) for b in basis] for a in basis])
    assert np.linalg.eigvalsh(G).min() > 0


def test_ad_matrix_is_skew_in_trace_pairing():
    alg = IsometryAlgebra(so_basis(4))
    xi = np.kron(np.eye(2), J2)
    G = alg.killing_gram()
    K = alg.ad_matrix(xi)
    assert np.abs(G @ K + K.T @ G).max() < 1e-12


# -- refusals -----------------------------------------------------------------

def test_refuses_empty_basis():
    with pytest.raises(ValueError, match="empty basis"):
        IsometryAlgebra([])


def test_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="mismatched shapes"):
        IsometryAlgebra([so_basis(4)[0], so_basis(3)[0]], validate=False)


def test_refuses_non_skew_basis_matrix():
    sym = np.zeros((4, 4))
    sym[0, 1] = sym[1, 0] = 1.0
    with pytest.raises(ValueError, match="skew-symmetric"):
        IsometryAlgebra(np.concatenate([so_basis(4)[:2], sym[None]]), validate=False)


def test_refuses_exactly_dependent_basis():
    basis = so_basis(4)
    with pytest.raises(ValueError, match="linearly dependent"):
        IsometryAlgebra(np.concatenate([basis, [basis[0] + basis[1]]]), validate=False)


def test_refuses_basis_dependent_to_1e_12():
    basis = so_basis(4)
    with pytest.raises(ValueError, match="linearly dependent"):
        IsometryAlgebra(np.concatenate([basis[:3], [basis[0] * (1 + 1e-12)]]), validate=False)


def test_refuses_basis_not_closed():
    with pytest.raises(ValueError, match="not closed"):
        IsometryAlgebra(so_basis(4)[:2], validate=True)


def test_decomposition_refuses_xi_outside_subalgebra():
    """so(3) on the first three coordinates of R^4; E_03 is skew but outside."""
    basis = so_basis(4)
    alg = IsometryAlgebra([basis[0], basis[1], basis[3]])
    with pytest.raises(ValueError, match="xi must belong"):
        standard_decomposition(alg, basis[2])


def test_contains_rejects_non_skew_matrix_with_upper_triangle_in_span():
    """The upper triangle of E_01 alone matches E_01 above the diagonal."""
    alg = IsometryAlgebra(so_basis(4))
    upper = np.triu(so_basis(4)[0])
    assert not alg.contains(upper)


def test_contains_rejects_matrix_of_another_size():
    alg = IsometryAlgebra(so_basis(4))
    assert not alg.contains(so_basis(3)[0])
    assert not alg.contains(so_basis(5)[0])


# -- standard decomposition ---------------------------------------------------

def test_decomposition_s3():
    st3 = build_round(1)
    alg = st3.isometry_algebra()
    dec = standard_decomposition(alg, st3.j0)
    assert [(round(r, 9), m) for r, m in dec.summary()] == [(0.0, 4), (2.0, 2)]
    assert dec.zero_block_dim == 4


def test_decomposition_s5():
    st5 = build_round(2)
    alg = st5.isometry_algebra()
    dec = standard_decomposition(alg, st5.j0)
    assert [(round(r, 9), m) for r, m in dec.summary()] == [(0.0, 9), (2.0, 6)]


@pytest.mark.parametrize("n", [1, 2])
def test_decomposition_matches_brute_force_oracle(n):
    """Cross-check against an independent lstsq/eigh/cluster implementation."""
    stn = build_round(n)
    alg = stn.isometry_algebra()
    dec = standard_decomposition(alg, stn.j0)
    oracle = brute_force_decomposition(so_basis(stn.dim), stn.j0)
    got = [(round(r, 9), m) for r, m in dec.summary()]
    want = [(round(r, 9), m) for r, m in oracle]
    assert got == want


def test_decomposition_blocks_are_eigenblocks():
    stn = build_round(1)
    alg = stn.isometry_algebra()
    xi = stn.j0
    dec = standard_decomposition(alg, xi)
    for rate, block in zip(dec.rates, dec.blocks):
        for A in block:
            ad2 = field_bracket(xi, field_bracket(xi, A))
            assert np.abs(ad2 + rate * rate * A).max() < 1e-10


def _clusters_by_loop(vals, tol):
    """The clustering as one Python step per eigenvalue: join the current
    cluster unless the value sits more than tol above its predecessor."""
    clusters = [[0]]
    for k in range(1, len(vals)):
        if vals[k] - vals[clusters[-1][-1]] <= tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


TOL = 2.0 ** -27  # dyadic, so the gaps below are exact


@pytest.mark.parametrize("vals", [
    [0.0],
    [-1.0, -1.0 + TOL, -1.0 + 2 * TOL],                 # gaps exactly at tol: one cluster
    [-1.0, -1.0 + 2 * TOL, -1.0 + 4 * TOL],             # gaps over tol: three
    [0.0, 0.75 * TOL, 1.5 * TOL, 2.25 * TOL, 3.0 * TOL],  # a chain wider than tol: one
    [-4.0, -4.0, -4.0 + TOL, -1.0, -1.0 + TOL, 0.0, TOL, 3 * TOL],
    sorted(np.random.default_rng(5).choice([-4.0, -1.0, 0.0], 30)
           + TOL * np.random.default_rng(6).integers(0, 3, 30)),
])
def test_vectorized_clustering_matches_the_loop(vals):
    vals = np.asarray(vals, dtype=float)
    got = [c.tolist() for c in np.split(np.arange(len(vals)), _cluster_cuts(vals, TOL))]
    assert got == _clusters_by_loop(vals, TOL)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_decomposition_blocks_are_the_loop_clusters_of_one_stack(n):
    """At the default tolerance on real spectra: the blocks are read-only
    (b, d, d) slices of one stack, sized by the loop's clusters."""
    d = 2 * n + 2
    a = np.sqrt(2.0) - 1.0
    xi = np.kron(np.eye(n + 1), J2)
    xi[:2, :2] *= 1.0 + a
    dec = standard_decomposition(IsometryAlgebra(so_basis(d), validate=False), xi)
    vals = dec.s_eigenvalues
    scale = max(1.0, float(np.abs(vals).max()))
    sizes = sorted(len(c) for c in _clusters_by_loop(vals, CLUSTER_TOL * scale))
    assert sorted(len(b) for b in dec.blocks) == sizes
    for block in dec.blocks:
        assert block.shape[1:] == (d, d) and not block.flags.writeable
    assert sum(len(b) for b in dec.blocks) == d * (d - 1) // 2


def test_decomposition_rejects_foreign_xi():
    alg = IsometryAlgebra(so_basis(4))
    not_in = np.zeros((4, 4))
    not_in[0, 1], not_in[1, 0] = 1.0, 1.0  # symmetric, not in so(4)
    with pytest.raises(ValueError):
        standard_decomposition(alg, not_in)


def test_degenerate_cluster_raises():
    """Two rates split by 3e-4 collide inside the cluster tolerance."""
    alg = IsometryAlgebra(so_basis(4))
    eps = 3e-4
    xi = np.zeros((4, 4))
    xi[:2, :2] = J2
    xi[2:, 2:] = (1.0 + eps) * J2
    with pytest.raises(DegenerateClusterError):
        standard_decomposition(alg, xi)


def test_well_separated_rates_split_cleanly():
    alg = IsometryAlgebra(so_basis(4))
    xi = np.zeros((4, 4))
    xi[:2, :2] = J2
    xi[2:, 2:] = 3.0 * J2
    dec = standard_decomposition(alg, xi)
    assert dec.zero_block_dim == 2
    assert len(dec.rates) > 1


def test_adjoint_spectrum_of_j0_on_so6():
    """J0 on so(6): the commutant u(3) at rate 0 and a rate-2 block of 6."""
    alg = IsometryAlgebra(so_basis(6), validate=False)
    dec = standard_decomposition(alg, np.kron(np.eye(3), J2))
    assert [(round(r, 9), m) for r, m in dec.summary()] == [(0.0, 9), (2.0, 6)]
    assert adjoint_rates([1.0, 1.0, 1.0]) == [(0.0, 9), (2.0, 6)]


def test_adjoint_spectrum_of_j0_on_so42():
    """The same closed form at scale: J0 on so(42) has the commutant u(21)
    at rate 0 and a rate-2 block of 420."""
    alg = IsometryAlgebra(so_basis(42), validate=False)
    dec = standard_decomposition(alg, np.kron(np.eye(21), J2))
    assert dec.summary() == [(0.0, 441), (2.0, 420)]
    assert adjoint_rates([1.0] * 21) == [(0.0, 441), (2.0, 420)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 20])
def test_adjoint_spectrum_matches_closed_form(n):
    """xi = J0 + a J1 on so(2n+2), a = sqrt(2) - 1, rotates its planes at
    (sqrt 2, 1, ..., 1); the blocks must carry the rates |l_i +- l_j| (i < j)
    with multiplicity 2 each plus one zero rate per plane."""
    d = 2 * n + 2
    a = np.sqrt(2.0) - 1.0
    lams = [1.0 + a] + [1.0] * n
    xi = np.zeros((d, d))
    for k, lam in enumerate(lams):
        xi[2 * k:2 * k + 2, 2 * k:2 * k + 2] = lam * J2
    alg = IsometryAlgebra(so_basis(d), validate=False)
    got = standard_decomposition(alg, xi).summary()
    want = adjoint_rates(lams)
    assert [m for _, m in got] == [m for _, m in want]
    assert np.allclose([r for r, _ in got], [r for r, _ in want], rtol=0, atol=1e-9)


# -- eigenfield identities ----------------------------------------------------

def test_eigenfield_identities_on_round(lc_round1, round1, pts1):
    dec = standard_decomposition(round1.isometry_algebra(), round1.j0)
    rate = dec.rates[-1]
    assert rate == pytest.approx(2.0)
    st = lc_round1.structure_at(round1.field, pts1[:10])
    for A in dec.blocks[-1]:
        res = eigenfield_residuals(round1.field, A, st, rate=rate)
        assert res["orthogonality"] < 1e-10
        assert res["bracket_identity"] < 1e-10
        assert res["eigenvalue_identity"] < 1e-10


def test_eigenfield_identities_fail_for_commutant(lc_round1, round1, pts1):
    """A commuting generator is not an eigenfield: the -rate^2 identity breaks."""
    dec = standard_decomposition(round1.isometry_algebra(), round1.j0)
    A = dec.blocks[0][-1]  # a nonzero commutant element
    res = eigenfield_residuals(round1.field, A, lc_round1.structure_at(round1.field, pts1[:10]),
                               rate=2.0)
    assert res["eigenvalue_identity"] > 0.1


def test_centralizer_check(irregular):
    alg = irregular.isometry_algebra()
    out = centralizer_check(alg, [irregular.j0, irregular.j1])
    assert out["ok"]
    assert out["max_commutator"] < 1e-12
    assert all(out["members"])


def test_centralizer_check_flags_non_central():
    alg = IsometryAlgebra(so_basis(4))
    probe = so_basis(4)[0]
    out = centralizer_check(alg, [probe])
    assert not out["ok"]


@pytest.mark.parametrize("example", ["round", "deformed"])
def test_eigenfield_residuals_block_matches_per_generator(example, round1, lc_round1,
                                                          pts1, deformed, pts3):
    """One call on a whole block (here with a commutant element mixed in, so
    the identities fail on one row) gives the max of the per-generator,
    per-sample reference."""
    if example == "round":
        st, lc, pts = round1, lc_round1, pts1[:10]
    else:
        st, lc, pts = deformed, LeviCivita(deformed.metric), pts3[:4]
    dec = standard_decomposition(st.isometry_algebra(), st.j0)
    rate = dec.rates[-1]
    mats = list(dec.blocks[-1]) + [dec.blocks[0][-1]]
    got = eigenfield_residuals(st.field, np.stack(mats), lc.structure_at(st.field, pts), rate=rate)
    want = eigenfield_residuals_per_generator(lc, st.field, mats, pts, rate)
    assert want["eigenvalue_identity"] > 0.1
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-12, abs=1e-14)


def test_stacked_eigenfield_call_matches_the_per_generator_oracle(round2, lc_round2, pts2):
    """The whole rate-2 block of so(6), one call, against one generator and
    one sample at a time."""
    dec = standard_decomposition(round2.isometry_algebra(), round2.j0)
    mats = dec.blocks[-1]
    got = eigenfield_residuals(round2.field, mats, lc_round2.structure_at(round2.field,
                                                                          pts2[:10]),
                               rate=dec.rates[-1])
    want = eigenfield_residuals_per_generator(lc_round2, round2.field, mats, pts2[:10],
                                              dec.rates[-1])
    assert set(got) == set(want)
    for key, val in want.items():
        assert abs(got[key] - val) <= 1e-14, key
