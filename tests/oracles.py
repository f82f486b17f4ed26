"""Independent oracles for the test suite.

Everything here is computed from first principles with plain numpy, on
purpose NOT reusing the package's own coefficient extraction, clustering,
or covariant-derivative code, so that agreement between the two is a real
cross-check rather than a tautology.  ``built`` alone is not an oracle: it
makes what a battery builds once and passes its checks.
"""

from __future__ import annotations

import numpy as np


def built(lc, fld, points):
    """The structure st = ``lc.structure_at(fld, points)`` and T =
    ``lc.second_nabla_frame(fld, st.x, st.frame, st.jet)``, as a battery builds them."""
    st = lc.structure_at(fld, points)
    return st, lc.second_nabla_frame(fld, st.x, st.frame, st.jet)


def brute_force_decomposition(basis, xi, rel_gap: float = 1e-6):
    """Eigenstructure of (ad_xi)^2 on span(basis), computed the blunt way.

    The adjoint matrix is extracted column by column with lstsq on raveled
    matrices (no inner-product Gram tricks), symmetrized, eigendecomposed
    with eigh, and the eigenvalues are clustered by sorting and splitting at
    relative gaps.  Returns a sorted list of (rate, multiplicity) pairs with
    rate = sqrt(max(0, -cluster mean)).
    """
    mats = [np.asarray(m, dtype=float) for m in basis]
    k = len(mats)
    B = np.stack([m.ravel() for m in mats], axis=1)
    ad = np.zeros((k, k))
    for j, m in enumerate(mats):
        br = xi @ m - m @ xi
        coef, *_ = np.linalg.lstsq(B, br.ravel(), rcond=None)
        ad[:, j] = coef
    S = ad @ ad
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    order = np.argsort(w)
    w = w[order]
    scale = max(1.0, float(np.abs(w).max()))
    clusters: list[list[float]] = [[float(w[0])]]
    for val in w[1:]:
        if float(val) - clusters[-1][-1] > rel_gap * scale:
            clusters.append([float(val)])
        else:
            clusters[-1].append(float(val))
    out = []
    for cl in clusters:
        mean = float(np.mean(cl))
        rate = float(np.sqrt(max(0.0, -mean)))
        out.append((rate, len(cl)))
    return sorted(out)


def metric_pullback_drift(gen, points, h: float = 1e-6) -> float:
    """Numeric Lie-derivative oracle for the flat ambient inner product.

    For the linear field x -> gen @ x on the unit sphere with the induced
    round metric, the flow is t -> expm(t*gen); the metric is preserved iff
    <e^{h gen} u, e^{h gen} v> is constant in h.  Returns the max symmetric
    difference quotient over all pairs of tangent vectors from an ambient
    basis projected at each sample point.  Independent of the package's
    Christoffel machinery.
    """
    from scipy.linalg import expm

    gen = np.asarray(gen, dtype=float)
    fwd = expm(h * gen)
    bwd = expm(-h * gen)
    worst = 0.0
    for p in points:
        x = p.coords
        P = np.eye(x.shape[0]) - np.outer(x, x)
        V = P  # columns span the tangent space (rank d-1, fine for a max)
        g_f = (fwd @ V).T @ (fwd @ V)
        g_b = (bwd @ V).T @ (bwd @ V)
        worst = max(worst, float(np.abs((g_f - g_b) / (2.0 * h)).max()))
    return worst


def stereographic_metric_closed_form(u: np.ndarray) -> np.ndarray:
    """Round-metric components in a stereographic chart: (2/(1+|u|^2))^2 I."""
    u = np.asarray(u, dtype=float)
    lam = 2.0 / (1.0 + float(u @ u))
    return lam * lam * np.eye(u.shape[0])


def orbit_min_distance_grid(gen, x0, t_max: float, n: int = 200_000,
                            t_min: float = 0.5) -> float:
    """Dense-grid minimum of |exp(t gen) x0 - x0| for t in [t_min, t_max].

    ``t_min`` skips the initial departure from x0 (every orbit is near its
    start for small t).  Brute-force eigen-decomposition propagation;
    independent of the package's candidate-refinement probe.
    """
    gen = np.asarray(gen, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    evals, evecs = np.linalg.eig(gen)
    c0 = np.linalg.solve(evecs, x0.astype(complex))
    ts = np.linspace(t_min, t_max, n)
    phases = np.exp(np.multiply.outer(ts, evals))
    pos = (phases * c0) @ evecs.T
    return float(np.linalg.norm(pos.real - x0, axis=1).min())


def orbit_min_distance_mp(rates, plane_weights, t_lo: float, t_hi: float) -> float:
    """Minimum over [t_lo, t_hi] of |exp(t gen) x0 - x0| at 30 digits, for a
    flow that rotates its i-th invariant plane at ``rates[i]``, x0 holding
    squared norm ``plane_weights[i]`` in that plane:

        dist^2 = 4 sum_i c_i sin^2(rho_i t / 2).

    Written from the plane rates, not from an eigendecomposition.  A float grid
    of 200 001 points finds the local minima within 1e-6 (in dist^2) of its
    lowest; each is the root of the derivative's sum_i c_i rho_i sin(rho_i t)
    between its grid neighbours, solved by mpmath at mp.dps = 30.
    """
    import mpmath as mp

    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(plane_weights, dtype=float)
    ts = np.linspace(t_lo, t_hi, 200_001)
    d2 = 4.0 * np.sin(0.5 * np.multiply.outer(ts, rates)) ** 2 @ weights
    mid = d2[1:-1]
    lows = 1 + np.flatnonzero((mid <= d2[:-2]) & (mid <= d2[2:]) & (mid <= d2.min() + 1e-6))
    with mp.workdps(30):
        rho = [mp.mpf(float(r)) for r in rates]
        c = [mp.mpf(float(w)) for w in weights]

        def slope(t):
            return mp.fsum(ci * ri * mp.sin(ri * t) for ci, ri in zip(c, rho))

        def dist(t):
            return 2 * mp.sqrt(mp.fsum(ci * mp.sin(ri * t / 2) ** 2 for ci, ri in zip(c, rho)))

        return float(min(dist(mp.findroot(slope, (mp.mpf(ts[k - 1]), mp.mpf(ts[k + 1])),
                                          solver="anderson"))
                         for k in lows))


def adjoint_rates(lams, tol: float = 1e-9):
    """Closed-form spectrum of ad(xi) on so(2k) for xi rotating k coordinate
    planes at rates ``lams``.

    Each pair of planes i < j carries a 4-dimensional invariant subspace
    on which ad(xi) rotates at |l_i + l_j| and |l_i - l_j|, each with
    multiplicity 2; each plane's own rotation generator commutes with xi and
    adds one zero rate.  Returns sorted (rate, multiplicity) pairs, rates
    closer than ``tol`` merged.
    """
    rates = [0.0] * len(lams)
    for i, li in enumerate(lams):
        for lj in lams[i + 1:]:
            rates += [abs(li + lj)] * 2 + [abs(li - lj)] * 2
    rates.sort()
    out: list[tuple[float, int]] = []
    for r in rates:
        if out and r - out[-1][0] <= tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((r, 1))
    return out


def curvature_form(bundle, y, u, v) -> float:
    """Two-form on the base measuring the bracket defect of the horizontal
    lifts: twice the complex pairing of the lifts of u and v at the fiber
    point x = (y0 / w, y1 / w, w, 0), w = sqrt(1/2 - y2), over y.  Each lift
    is P_H dpi^T G^-1 t, P_H the projector off x and j0 x and G = dpi P_H
    dpi^T + 4 y y^T the regularised pushforward Gram, solved by LAPACK."""
    from killinglab.constructions import hopf_differential

    w = np.sqrt(0.5 - y[2])
    x = np.array([y[0] / w, y[1] / w, w, 0.0])
    xi = bundle.j0 @ x
    PH = np.eye(4) - np.outer(x, x) - np.outer(xi, xi)
    dpi = hopf_differential(x)
    G = dpi @ PH @ dpi.T + 4.0 * np.outer(y, y)
    lu, lv = (PH @ dpi.T @ np.linalg.solve(G, t) for t in (u, v))
    return 2.0 * float((bundle.j0 @ lu) @ lv)


def eigenfield_residuals_per_generator(lc, xi_field, mats, points, rate):
    """Reference for the batched eigenfield identities: one generator and one
    sample at a time, as plain matrix-vector products."""
    xi_mat = xi_field.matrix
    orth = brk = eig = 0.0
    for A in mats:
        br = A @ xi_mat - xi_mat @ A
        for p in points:
            x = p.coords
            st = lc.structure_at(xi_field, p)
            a = A @ x
            orth = max(orth, abs(float(a @ st.metric_matrix @ st.xi)))
            w = st.frame @ (st.frame.T @ (st.dxi.T @ a))
            brk = max(brk, float(np.linalg.norm(br @ x + w)))
            af = st.frame.T @ (st.metric_matrix @ a)
            ev = 4.0 * (st.phi_frame @ (st.phi_frame @ af)) + rate**2 * af
            eig = max(eig, float(np.abs(ev).max()))
    return {"orthogonality": orth, "bracket_identity": brk,
            "eigenvalue_identity": eig}


def nijenhuis_residual_per_point(lc, fld, point, step=None):
    """A second discretisation of the horizontal Nijenhuis torsion, free of
    nabla^2 xi: coordinate brackets of horizontal frame fields by central
    differences in a stereographic chart of ``default_atlas``, with the full
    structure bundle (g-orthonormal frame included) at every stencil point,
    one point and one frame pair at a time, and the horizontal seeds from the
    Gram-Schmidt loop.  The default step is 15 fd_step off the round metric
    and fd_step / 10 on it."""
    from killinglab.sphere import SpherePoint

    if step is None:
        step = lc.fd_step / 10 if lc.metric.exact_round else 15 * lc.fd_step
    x0 = point.coords
    st0 = lc.structure_at(fld, point)
    M0 = st0.metric_matrix
    seeds = g_orthonormal_frame_exclude_mgs(M0, x0, [st0.xi])
    k = seeds.shape[1]
    chart = chart_of(x0)
    u0 = chart.coords(point)
    m = chart.dim - 1

    def horizontal_fields(u):
        x = chart.point_coords(u)
        st = lc.structure_at(fld, SpherePoint(x))
        M = st.metric_matrix
        xi = st.xi
        g_xx = float(xi @ M @ xi)
        Xs = np.empty((k, x.shape[0]))
        JXs = np.empty((k, x.shape[0]))
        for i in range(k):
            w = seeds[:, i] - np.dot(seeds[:, i], x) * x
            w = w - (float(xi @ M @ w) / g_xx) * xi
            Xs[i] = w
            JXs[i] = st.phi_ambient @ w
        to_ch = lambda arr: np.stack([chart.to_chart_vector(u, row) for row in arr])
        return to_ch(Xs), to_ch(JXs)

    X0c, JX0c = horizontal_fields(u0)
    dX = np.empty((m, k, m))
    dJX = np.empty((m, k, m))
    for l in range(m):
        e = np.zeros(m)
        e[l] = step
        Xp, JXp = horizontal_fields(u0 + e)
        Xm, JXm = horizontal_fields(u0 - e)
        dX[l] = (Xp - Xm) / (2 * step)
        dJX[l] = (JXp - JXm) / (2 * step)

    def bracket(Uc, dU, Vc, dV):
        return np.einsum("l,lk->k", Uc, dV) - np.einsum("l,lk->k", Vc, dU)

    xi0 = st0.xi
    g00 = float(xi0 @ M0 @ xi0)

    def proj_h(v):
        w = v - np.dot(v, x0) * x0
        return w - (float(xi0 @ M0 @ w) / g00) * xi0

    phi0 = st0.phi_ambient
    worst = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            b_jj = chart.push(u0, bracket(JX0c[i], dJX[:, i], JX0c[j], dJX[:, j]))
            b_jx = chart.push(u0, bracket(JX0c[i], dJX[:, i], X0c[j], dX[:, j]))
            b_xj = chart.push(u0, bracket(X0c[i], dX[:, i], JX0c[j], dJX[:, j]))
            b_xx = chart.push(u0, bracket(X0c[i], dX[:, i], X0c[j], dX[:, j]))
            N4 = (proj_h(b_jj) - phi0 @ proj_h(b_jx) - phi0 @ proj_h(b_xj)
                  - proj_h(b_xx))
            R = 0.25 * proj_h(N4)
            worst = max(worst, float(np.sqrt(R @ M0 @ R)))
    return worst


def nijenhuis_stencil_and_bound(lc, fld, X):
    """The stencil torsion S = ``nijenhuis_residual_per_point`` at each row of
    X (N, d) at fd_step h, and a bound on its gap to the contracted torsion
    C = ``verify.nijenhuis_residual`` at the same h:

      |C(h) - S(h)| <= 2 (4/3) (|S(h) - S(h/2)| + |C(h) - C(h/2)|).

    Both are O(h^2) discretisations of one torsion, so each lies within
    (4/3) of its step-halving change of the exact value (Richardson); the
    factor 2 is margin."""
    from killinglab.metrics import LeviCivita
    from killinglab.sphere import SpherePoint
    from killinglab.verify import nijenhuis_residual

    half = LeviCivita(lc.metric, fd_step=lc.fd_step / 2)
    S, S_half = (np.array([nijenhuis_residual_per_point(c, fld, SpherePoint(x)) for x in X])
                 for c in (lc, half))
    C, C_half = (nijenhuis_residual(*built(c, fld, X)) for c in (lc, half))
    return S, 2.0 * (4.0 / 3.0) * (np.abs(S - S_half) + np.abs(C - C_half))


def orthonormal_tangent_frame_mgs(x):
    """Reference Euclidean tangent frame at one point: drop the axis of
    largest |x_i| (argmax breaks ties), project the other axes to x^perp and
    run modified Gram-Schmidt on them in index order."""
    d = x.shape[0]
    drop = int(np.argmax(np.abs(x)))
    cols = []
    for i in range(d):
        if i == drop:
            continue
        v = -x[i] * x
        v[i] += 1.0
        for c in cols:
            v = v - np.dot(v, c) * c
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def g_orthonormal_frame_mgs(M, x):
    """Reference g-orthonormal tangent frame at one point: modified
    Gram-Schmidt in the inner product u^T M v of the reference Euclidean
    frame's columns, in order."""
    kept = []
    for v in orthonormal_tangent_frame_mgs(x).T:
        w = v.copy()
        for c in kept:
            w = w - (c @ M @ w) * c
        kept.append(w / np.sqrt(w @ M @ w))
    return np.stack(kept, axis=1)


def g_orthonormal_frame_exclude_mgs(M, x, exclude):
    """Reference complement of excluded vectors at one point: modified Gram-Schmidt in the
    inner product u^T M v of the excluded vectors followed by the reference
    Euclidean frame's columns; a seed whose g-norm after projection falls
    below 1e-8 is dropped (an excluded one raises ValueError), and the
    columns kept after the excluded vectors are returned, (d, d-1-len(exclude))."""
    exclude = [np.asarray(v, dtype=float) for v in exclude]
    kept = []
    for idx, v in enumerate(exclude + list(orthonormal_tangent_frame_mgs(x).T)):
        w = v.copy()
        for c in kept:
            w = w - (c @ M @ w) * c
        nrm = float(np.sqrt(max(w @ M @ w, 0.0)))
        if nrm >= 1e-8:
            kept.append(w / nrm)
        elif idx < len(exclude):
            raise ValueError("excluded vectors are g-degenerate or dependent")
    assert len(kept) == x.shape[0] - 1, "tangent frame construction lost rank"
    return np.array(kept[len(exclude):]).T.reshape(x.shape[0], -1)


def chart_of(x):
    """The chart of ``default_atlas`` whose pole is farther from x (d,)."""
    from killinglab.sphere import chart_for_point, default_atlas

    return chart_for_point(x, default_atlas(x.shape[0]))


def _axis_diff(f, u0, h):
    """Central differences D[l] = (f(u0 + h e_l) - f(u0 - h e_l)) / 2h, one
    axis at a time."""
    D = []
    for l in range(u0.shape[0]):
        e = np.zeros(u0.shape[0])
        e[l] = h
        D.append((f(u0 + e) - f(u0 - e)) / (2.0 * h))
    return np.stack(D)


def _lower(d):
    """d[l, i, j] = d_l g_ij  ->  (d_i g_jk + d_j g_ik - d_k g_ij) / 2 at [k, i, j],
    one index at a time."""
    m = d.shape[0]
    out = np.empty((m, m, m))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                out[k, i, j] = 0.5 * (d[i, j, k] + d[j, i, k] - d[k, i, j])
    return out


def _torsion_free_hessian(Gamma, H, dH):
    """DH[k, i, j] = d_i H^k_j + Gamma^k_{il} H^l_j - Gamma^l_{ij} H^k_l
    from dH[i, k, j] = d_i H^k_j."""
    return (np.einsum("ikj->kij", dH) + np.einsum("kil,lj->kij", Gamma, H)
            - np.einsum("lij,kl->kij", Gamma, H))


# -- the stereographic chart discretisation, from the public Chart maps -----------

def chart_metric_and_field(metric, fld, chart, u):
    """[g | X] (m, m + 1) at one chart point u (m,): the pulled-back metric
    J^T M J and the field's chart components."""
    y = chart.point_coords(u)
    J = chart.jacobian(u)
    Xc = chart.to_chart_vector(u, fld.value(y))
    return np.concatenate([J.T @ metric.matrix_at(y) @ J, Xc[:, None]], axis=1)


def chart_endo(metric, fld, chart, u, h):
    """Christoffel symbols Gamma[k, i, j] and H[k, j] = d_j X^k +
    Gamma^k_{jl} X^l at one chart point u, from central differences of
    [g | X] at step h one axis at a time."""
    f0 = chart_metric_and_field(metric, fld, chart, u)
    D = _axis_diff(lambda v: chart_metric_and_field(metric, fld, chart, v), u, h)
    m = u.shape[0]
    Gamma = np.einsum("ka,aij->kij", np.linalg.inv(f0[:, :m]), _lower(D[..., :m]))
    return Gamma, D[..., m].T + Gamma @ f0[:, m]


def chart_nabla_endo_per_point(lc, fld, x, h=None):
    """Ambient covariant derivative N = J H J^T / lam^2 (d, d) at one point x
    from ``chart_endo`` in its chart, at step h (default lc.fd_step)."""
    chart = chart_of(x)
    u0 = chart.coords(x)
    _, H = chart_endo(lc.metric, fld, chart, u0, lc.fd_step if h is None else h)
    J = chart.jacobian(u0)
    return J @ H @ J.T / chart.conformal_factor(u0) ** 2


def _contract_chart_second_nabla(chart, u0, T_chart, frame):
    """Push the chart tensor T_chart[k, i, j] at u0 forward to ambient values
    on the frame (d, k), one frame pair at a time, (d, k, k)."""
    J = chart.jacobian(u0)
    fc = np.stack([chart.to_chart_vector(u0, f) for f in frame.T], axis=1)  # (m, k)
    k = frame.shape[1]
    T = np.empty((J.shape[0], k, k))
    for i in range(k):
        for j in range(k):
            T[:, i, j] = J @ np.einsum("kab,a,b->k", T_chart, fc[:, i], fc[:, j])
    return T


def second_nabla_nested_per_point(lc, fld, x, frame):
    """A chart discretisation of the second covariant derivative at one point
    x (d,) on a frame (d, k), (d, k, k), in the stereographic chart of x: the
    chart endomorphism H of the first covariant derivative at inner step
    fd_step / 3, differenced one axis at a time at outer step 10 fd_step, with
    the Christoffel symbols at the centre at the inner step."""
    chart = chart_of(x)
    u0 = chart.coords(x)
    h_in, h_out = lc.fd_step / 3.0, lc.fd_step * 10.0
    Gamma, H0 = chart_endo(lc.metric, fld, chart, u0, h_in)
    dH = _axis_diff(lambda u: chart_endo(lc.metric, fld, chart, u, h_in)[1], u0, h_out)
    return _contract_chart_second_nabla(chart, u0, _torsion_free_hessian(Gamma, H0, dH), frame)


# -- the ambient discretisation, one stencil offset at a time ----------------------

def second_nabla_fd_per_point(lc, fld, x, frame):
    """Reference for the batched ambient second covariant derivative at one
    point x (d,) on a frame (d, k), (d, k, k): [M~ | X] from
    ``lc.metric_and_field`` at one offset of the flat stencil of step h =
    fd_step * SECOND_DERIV_STEP_SCALE at a time, the first, pure second and
    seven-point mixed second differences taken one axis pair at a time, the
    last as (f(x + h(e_i + e_j)) + f(x - h(e_i + e_j)) - f(x +- h e_i) -
    f(x +- h e_j) + 2 f(x)) / 2h^2, the Christoffel symbols, H = dX^T +
    Gamma X and its derivatives formed one index at a time from M~^-1, and
    the Gauss formula

      T(u, v) = P[(D_u H) v] - (w(u)^T M~ v) P H x - (x^T H v) P w(u),
      w(u) = u + Gamma(u, x),

    one frame pair at a time."""
    from killinglab.metrics import SECOND_DERIV_STEP_SCALE

    d = x.shape[0]
    h = lc.fd_step * SECOND_DERIV_STEP_SCALE

    def f(*steps):  # [M~ | X] at x + sum of sign * h e_axis over (axis, sign)
        off = np.zeros(d)
        for axis, sign in steps:
            off[axis] = sign * h
        # a one-row stack: a single point would take np.dot, which rounds otherwise
        return lc.metric_and_field(fld, (x + off)[None])[0]

    f0 = f()
    D1 = np.empty((d,) + f0.shape)      # D1[l] = d_l [M~ | X]
    D2 = np.empty((d, d) + f0.shape)    # D2[p, l] = d_p d_l [M~ | X]
    pm = [(f((i, 1)), f((i, -1))) for i in range(d)]  # f(x + h e_i), f(x - h e_i)
    axial = [fp + fm for fp, fm in pm]
    for i, (fp, fm) in enumerate(pm):
        D1[i] = (fp - fm) / (2.0 * h)
        D2[i, i] = (fp - 2.0 * f0 + fm) / h ** 2
        for j in range(i + 1, d):  # the seven-point mixed difference
            D2[i, j] = D2[j, i] = (f((i, 1), (j, 1)) + f((i, -1), (j, -1))
                                   - axial[i] - axial[j] + 2.0 * f0) / (2.0 * h ** 2)
    g, X = f0[:, :d], f0[:, d]
    dg, dX, ddg, ddX = D1[..., :d], D1[..., d], D2[..., :d], D2[..., d]
    ginv = np.linalg.inv(g)
    Gamma = np.einsum("ka,aij->kij", ginv, _lower(dg))
    H = dX.T + Gamma @ X                                                    # H[k, j]
    # d_i (Gamma X)^k_j with X held = M~^-1 (d_i LX - (d_i g) Gamma X), LX[m, j] = lower_{m, jl}
    # X^l, whose derivative (Q[i, j, m] - Q[i, m, j] + R[i, j, m]) / 2 reads the second
    # differences only against X: Q[i, j, m] = d_i d_j (M~ X)_m, R[i, j, m] = d_i (D_X M~)_jm
    dH = []
    for i in range(d):
        Q, R = ddg[i] @ X, np.einsum("l,lab->ab", X, ddg[i])
        dH.append(ddX[i].T + ginv @ (0.5 * (Q.T - Q + R) - dg[i] @ (Gamma @ X)) + Gamma @ dX[i])
    dH = np.stack(dH)                                                       # dH[i, k, j]
    DH = _torsion_free_hessian(Gamma, H, dH)
    P = np.eye(d) - np.outer(x, x)
    k = frame.shape[1]
    T = np.empty((d, k, k))
    for i in range(k):
        u = frame[:, i]
        w = u + np.einsum("kab,a,b->k", Gamma, u, x)
        for j in range(k):
            v = frame[:, j]
            T[:, i, j] = P @ (np.einsum("kab,a,b->k", DH, u, v)
                              - (w @ g @ v) * (H @ x) - (x @ H @ v) * w)
    return T


def canary_drifts_per_point(lc, fld, x, frame):
    """Reference for the two drifts the step canary bounds at one point x
    (d,) with g-orthonormal frame (d, k), one stencil offset at a time, each
    |A - A_half|_F / max(1, |A_half|_F) as ``metrics.richardson_guard``
    reads it:

      (1) H[k, j] = d_j X^k + Gamma^k_{jl} X^l from central differences of
          [M~ | X] (``lc.metric_and_field``) along the d axes at fd_step h
          and at h / 2, Gamma formed one index at a time from M~^-1;
      (2) the pure second differences (f(x + s u) + f(x - s u) - 2 f(x)) / s^2
          of [M~ | X] along each frame column u at s = h_2 = fd_step *
          SECOND_DERIV_STEP_SCALE and at h_2 / 2, the largest over the columns.

    Returns (drift_1, drift_2)."""
    from killinglab.metrics import SECOND_DERIV_STEP_SCALE

    d = x.shape[0]

    def f(y):  # a one-row stack: a single point would take np.dot, which rounds otherwise
        return lc.metric_and_field(fld, y[None])[0]

    def drift(A, A_half):
        return np.linalg.norm(A - A_half) / max(1.0, np.linalg.norm(A_half))

    f0 = f(x)
    g, X = f0[:, :d], f0[:, d]

    def endo(h):
        D = _axis_diff(f, x, h)
        Gamma = np.einsum("ka,aij->kij", np.linalg.inv(g), _lower(D[..., :d]))
        return D[..., d].T + Gamma @ X

    h = lc.fd_step
    h2 = h * SECOND_DERIV_STEP_SCALE
    second = max(drift((f(x + h2 * u) + f(x - h2 * u) - 2.0 * f0) / h2 ** 2,
                       (f(x + h2 / 2 * u) + f(x - h2 / 2 * u) - 2.0 * f0) / (h2 / 2) ** 2)
                 for u in frame.T)
    return drift(endo(h), endo(h / 2)), second


def second_nabla_nested_and_bound(lc, fld, X, F):
    """The nested chart B = ``second_nabla_nested_per_point`` at each row of
    X (N, d) on the frames F (N, d, k) at fd_step h, and a bound per point on
    its gap to the ambient flat-stencil A = ``lc.second_nabla_frame`` at the
    same h:

      max |A(h) - B(h)| <= 2 (4/3) (max |A(h) - A(h/2)| + max |B(h) - B(h/2)|).

    Both are O(h^2) discretisations of one tensor, so each lies within (4/3)
    of its step-halving change of the exact value (Richardson); the factor 2
    is margin."""
    from killinglab.metrics import LeviCivita

    half = LeviCivita(lc.metric, fd_step=lc.fd_step / 2)
    B, B_half = (np.array([second_nabla_nested_per_point(c, fld, x, f) for x, f in zip(X, F)])
                 for c in (lc, half))
    A, A_half = (c.second_nabla_frame(fld, X, F) for c in (lc, half))
    worst = lambda D: np.abs(D).reshape(len(X), -1).max(axis=1)
    return B, 2.0 * (4.0 / 3.0) * (worst(A - A_half) + worst(B - B_half))


def contact_form_residual_per_point(lc_def, lc_ref, fld, point, h=None):
    """Reference for the contact-form comparison at one point: the larger of
    the one-form defect and the defect of its exterior derivative on the
    reference Euclidean tangent frame, each side's ambient one-form M(y) X(y)
    differenced one ambient axis at a time with step h (lc_def.fd_step when
    not given)."""
    x = point.coords
    E = orthonormal_tangent_frame_mgs(x)
    h = lc_def.fd_step if h is None else h

    def exterior(lc):
        G = _axis_diff(lambda y: lc.metric.matrix_at(y) @ fld.value(y), x, h)
        return E.T @ (G - G.T) @ E

    xi = fld.value(x)
    one = np.abs(lc_def.metric.matrix_at(x) @ xi - lc_ref.metric.matrix_at(x) @ xi).max()
    return max(float(one), float(np.abs(exterior(lc_def) - exterior(lc_ref)).max()))


def horizontal_split_per_point(lc, fields, point):
    """Reference horizontal split at one point: the structures of the three
    fields, the horizontal frame from the Gram-Schmidt loop, and the
    eigenstructure of psi_1 psi_2 psi_3 there.  Returns dim_plus, dim_minus
    and the involution, symmetry, invariance and commutation residuals."""
    sts = [lc.structure_at(f, point) for f in fields]
    M = sts[0].metric_matrix
    psis = [-st.phi_ambient for st in sts]
    FD = g_orthonormal_frame_exclude_mgs(M, point.coords, [st.xi for st in sts])
    P_amb = psis[0] @ psis[1] @ psis[2]
    P = FD.T @ M @ P_amb @ FD
    k = P.shape[0]
    vals = np.linalg.eigvalsh(0.5 * (P + P.T))
    out = {"dim_plus": int((vals > 0).sum()), "dim_minus": int((vals < 0).sum()),
           "involution": 0.0, "symmetry": 0.0, "invariance": 0.0, "commutation": 0.0}
    if k:
        out["involution"] = float(np.abs(P @ P - np.eye(k)).max())
        out["symmetry"] = float(np.abs(P - P.T).max())
        out["invariance"] = float(np.abs(P_amb @ FD - FD @ P).max())
        for psi in psis:
            psi_f = FD.T @ M @ psi @ FD
            out["commutation"] = max(out["commutation"],
                                     float(np.abs(P @ psi_f - psi_f @ P).max()))
    return out


def second_nabla_round_loop(E, x, frame):
    """Reference closed-form second covariant derivative of the field E x on
    the round sphere, T[:, i, j] = -(x.E f_j) P f_i - (f_i.f_j) P E x, one
    frame pair at a time."""
    k = frame.shape[1]
    T = np.empty((x.shape[0], k, k))
    Ex = E @ x
    Ex_t = Ex - np.dot(Ex, x) * x
    proj = np.eye(x.shape[0]) - np.outer(x, x)
    for i in range(k):
        u = frame[:, i]
        for j in range(k):
            v = frame[:, j]
            T[:, i, j] = -np.dot(E @ v, x) * proj @ u - np.dot(u, v) * Ex_t
    return T


def sample_sphere_loop(n, count, seed, pole_margin=1e-3):
    """Reference sampler: the same generator stream and batch size as
    ``sample_sphere``, each normalised row accepted or rejected on its own
    (not within 1e-12 of +-e1, farther than pole_margin from both poles)."""
    d = 2 * n + 2
    e1 = np.eye(d)[0]
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < count:
        batch = rng.standard_normal((max(count, 64), d))
        norms = np.linalg.norm(batch, axis=1)
        batch = batch[norms > 1e-8] / norms[norms > 1e-8, None]
        for row in batch:
            if abs(row[0] - 1.0) < 1e-12 or abs(row[0] + 1.0) < 1e-12:
                continue
            if np.linalg.norm(row - e1) <= pole_margin or np.linalg.norm(row + e1) <= pole_margin:
                continue
            kept.append(row)
            if len(kept) == count:
                break
    return np.array(kept)


# -- the non-round metrics at 50 digits, restated from their docstrings ------------

def rational_unit_point(u):
    """The unit point (2u, |u|^2 - 1) / (|u|^2 + 1) of R^(m+1), exact in
    Fractions: the inverse stereographic image of the rational u (m,)."""
    from fractions import Fraction

    u = [Fraction(a) for a in u]
    s = sum(a * a for a in u)
    return [2 * a / (s + 1) for a in u] + [(s - 1) / (s + 1)]


def _mp_vector(values):
    import mpmath

    return np.array([mpmath.mpf(v.numerator) / v.denominator if hasattr(v, "numerator")
                     else mpmath.mpf(v) for v in values], dtype=object)


def _complex_structure(y):
    """J0 y: a quarter turn in each coordinate pair (y_2k, y_2k+1)."""
    out = np.empty_like(y)
    out[0::2], out[1::2] = -y[1::2], y[0::2]
    return out


def gf_metric_mp(c):
    """``build_deformed``'s metric, from its docstring, on object arrays of
    mpf: in V2, the last four coordinates read as a quaternion q = (1, i, j,
    k) components, the direction field X is q j less its component along
    i q; F = c chi(t), t = (|X|^2 - 0.05) / (0.5 - 0.05), with the smooth
    step chi(t) = e^(-1/t) / (e^(-1/t) + e^(-1/(1-t))) on (0, 1); and g is the
    round metric but on the plane (X, J0 X), where |X|_g^2 = e^(-2F) |X|^2
    and |J0 X|_g^2 = e^(2F) |J0 X|^2."""
    import mpmath

    def metric(y):
        d = len(y)
        a, b, cc, dd = y[-4:]
        qj = np.array([-cc, -dd, a, b], dtype=object)       # q j
        iq = np.array([-b, a, -dd, cc], dtype=object)       # i q
        X = np.zeros(d, dtype=object) * mpmath.mpf(0)
        X[-4:] = qj - (qj @ iq) / (iq @ iq) * iq
        s = X @ X
        t = (s - mpmath.mpf(1) / 20) / (mpmath.mpf(1) / 2 - mpmath.mpf(1) / 20)
        chi = (mpmath.mpf(0) if t <= 0 else mpmath.mpf(1) if t >= 1 else
               mpmath.exp(-1 / t) / (mpmath.exp(-1 / t) + mpmath.exp(-1 / (1 - t))))
        F = c * chi
        Xh, Yh = X / mpmath.sqrt(s), _complex_structure(X) / mpmath.sqrt(s)
        eye = np.diag([mpmath.mpf(1)] * d)
        return (eye + (mpmath.exp(-2 * F) - 1) * np.outer(Xh, Xh)
                + (mpmath.exp(2 * F) - 1) * np.outer(Yh, Yh))

    return metric


def irregular_metric_mp(a):
    """``build_irregular``'s metric, from its docstring, on object arrays of
    mpf: xi = (J0 + a J1) y with J1 the quarter turn of the first pair alone,
    alpha = 1 / (1 + a |y_1|^2), the contact form eta = alpha <J0 y, .> (so
    eta(xi) = 1), and g(u, v) = alpha <u - eta(u) xi, v - eta(v) xi> + eta(u)
    eta(v): unit along xi, alpha times the round metric on ker eta."""
    import mpmath

    def metric(y):
        t0 = _complex_structure(y)
        xi = t0.copy()
        xi[0], xi[1] = xi[0] - a * y[1], xi[1] + a * y[0]
        alpha = 1 / (1 + a * (y[0] ** 2 + y[1] ** 2))
        eta = alpha * t0
        L = np.diag([mpmath.mpf(1)] * len(y)) - np.outer(xi, eta)  # u -> u - eta(u) xi
        return alpha * (L.T @ L) + np.outer(eta, eta)

    return metric


def second_order_oracle(metric, A, x, frame, dps=50, h="1e-15"):
    """M~, dM~ [l, i, j], nabla xi = N and T[:, i, j] = (nabla^2 xi)(f_i, f_j)
    of the field y -> A y at the exact unit point x (a list of Fractions) on
    the frame (d, k), as floats, from the metric at ``dps`` digits (mpmath,
    Johansson 2013): M~(y) = P M(y^) P + y^ y^T, y^ = y / |y|, P = Id - y^ y^T,
    as the metrics module states it, differenced at step h, 1e-15 (the
    truncation h^2 and the rounding 10^-dps / h^2 far below 1e-12), the
    mixed second differences by the seven-point rule.  Then Koszul's
    Christoffel symbols Gamma~ and their derivatives, H~ = A + Gamma~ X, N =
    P H~ P, and along S, where nabla_u V = P (d_u V + Gamma~(u, V)) and V = P v
    extends v,

      T(u, v) = P (d_u N) v + P Gamma~(u, N v) - N Gamma~(u, v),

    d_u N = d_u P H~ P + P d_u H~ P + P H~ d_u P and d_u P = -(u x^T + x u^T).
    No library code enters."""
    import mpmath

    with mpmath.workdps(dps):
        x = _mp_vector(x)
        d, h = len(x), mpmath.mpf(h)
        eye = np.diag([mpmath.mpf(1)] * d)

        def ext(y):  # P M P + y^ y^T = M - y^ (M y^)^T - (M y^) y^T + (y^.M y^ + 1) y^ y^T
            yh = y / mpmath.sqrt(y @ y)
            M = metric(yh)
            My = M @ yh
            return (M - np.outer(yh, My) - np.outer(My, yh)
                    + (yh @ My + 1) * np.outer(yh, yh))

        E = eye * h
        g0 = ext(x)
        plus, minus = [ext(x + e) for e in E], [ext(x - e) for e in E]
        dg = np.array([(p - m) / (2 * h) for p, m in zip(plus, minus)])
        d2 = np.empty((d, d, d, d), dtype=object)
        for i in range(d):
            d2[i, i] = (plus[i] - 2 * g0 + minus[i]) / h ** 2
            for j in range(i + 1, d):
                d2[i, j] = d2[j, i] = (ext(x + E[i] + E[j]) + ext(x - E[i] - E[j]) - plus[i]
                                       - minus[i] - plus[j] - minus[j] + 2 * g0) / (2 * h ** 2)
        ginv = np.array(mpmath.inverse(mpmath.matrix(g0.tolist())).tolist(), dtype=object)
        # first kind Gamma_{k, ij} = (d_i g_jk + d_j g_ik - d_k g_ij) / 2 and its derivatives,
        # which d_p H~ reads against X alone: (d_p Gamma~) X = g^-1 (d_p lower X - d_p g Gamma~ X)
        lower = (np.transpose(dg, (2, 0, 1)) + np.transpose(dg, (2, 1, 0)) - dg) / 2
        A = np.array([[mpmath.mpf(float(v)) for v in row] for row in A], dtype=object)
        X = A @ x
        dlower_X = (np.transpose(d2, (0, 3, 1, 2)) + np.transpose(d2, (0, 3, 2, 1)) - d2) @ X / 2
        Gamma = np.tensordot(ginv, lower, axes=1)
        GX = Gamma @ X                                               # (Gamma~ X)[k, j]
        H = A + GX                                                   # H[k, j]
        dH = np.array([ginv @ (dlower_X[p] - dg[p] @ GX) + Gamma @ A[:, p]
                       for p in range(d)])                           # d_p H~
        P = eye - np.outer(x, x)
        N = P @ H @ P

        F = np.array([[mpmath.mpf(float(v)) for v in row] for row in frame], dtype=object)
        k = F.shape[1]
        T = np.empty((d, k, k), dtype=object)
        for i in range(k):
            u = F[:, i]
            Gu = np.tensordot(Gamma, u, axes=([1], [0]))            # Gamma~(u, .)
            dP = -(np.outer(u, x) + np.outer(x, u))
            dN = dP @ H @ P + P @ np.tensordot(u, dH, axes=1) @ P + P @ H @ dP
            for j in range(k):
                v = F[:, j]
                T[:, i, j] = P @ (dN @ v) + P @ (Gu @ (N @ v)) - N @ (Gu @ v)
        return tuple(np.vectorize(float)(a).astype(float) for a in (g0, dg, N, T))
