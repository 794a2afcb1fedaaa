import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (affine_flow_ode, apply_transform, block, jacobian_defect,
                     nearest_node_taylor_reference)
from udham import flows as F
from udham import weights as W
from udham.series import FTSeries, poisson_bracket, sum_left_to_right
from udham.weights import ParameterError

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def small_affine_generator(n=2, K=4, scale=1e-2, seed=0):
    r = np.random.default_rng(seed)
    a = scale * r.uniform(0.5, 1.0, 4)
    C = FTSeries.zeros(n, K).add_cos((1, 0), a[0]).add_sin((1, -1), a[1])
    D = [FTSeries.zeros(n, K).add_cos((1, 1), a[2]),
         FTSeries.zeros(n, K).add_sin((0, 1), a[3])]
    return C, D


def jet_affine_generator(scale, seed):
    """C, D with degree-1 jets in two parameters."""
    r = np.random.default_rng(seed)
    z = lambda: FTSeries.zeros(2, 3, D_w=1, n_w=2)
    a = scale * r.uniform(0.5, 1.0, size=7)
    C = z().add_cos((1, 0), a[0]).add_sin((1, -1), a[1], w=(1, 0)).add_cos((0, 1), a[2], w=(0, 1))
    D = [z().add_cos((1, 1), a[3]).add_sin((1, 0), a[4], w=(0, 1)),
         z().add_sin((0, 1), a[5]).add_cos((1, 1), a[6], w=(1, 0))]
    return C, D


def as_generator_series(C, D):
    n = C.n
    blocks = {((0,) * n, ()): block(C)}
    for i in range(n):
        e = tuple(1 if a == i else 0 for a in range(n))
        blocks[(e, ())] = block(D[i])
    return FTSeries.from_blocks(FTSeries.zeros(n, C.K, D_I=1), blocks)


def linear_parts(tr):
    """F_ij of A_i = G_i + sum_j (delta_ij + F_ij) I_j, as angle series."""
    n = tr.n
    ident = F.AffineTransform.identity(n, 0, n_w=tr.E[0].n_w).A
    units = [tuple(int(a == j) for a in range(n)) for j in range(n)]

    def coefficient(f, ej):
        return f.map_monomials(lambda m, w: [(((0,) * n, w), 1.0)] if m == ej else [], D_I=0)

    return [[coefficient(a - u, ej) for ej in units] for a, u in zip(tr.A, ident)]


class TestAffineFlow:
    def test_zero_generator_identity(self):
        C = FTSeries.zeros(2, 3)
        D = [FTSeries.zeros(2, 3), FTSeries.zeros(2, 3)]
        tr = affine_flow_ode(C, D, t=1.0, n_steps=8)
        ident = F.AffineTransform.identity(2, 3)
        assert all(e.coeff_norm1() < 1e-15 for e in tr.E)
        assert all((a - u).coeff_norm1() < 1e-15 for a, u in zip(tr.A, ident.A))

    def test_constant_d_closed_form(self):
        C = FTSeries.zeros(2, 3).add_cos((2, 0), 0.05)
        D = [FTSeries.zeros(2, 3) for _ in range(2)]
        D[0].set_mode((0, 0), 0.12)
        D[1].set_mode((0, 0), -0.07)
        tr = F.affine_flow_lie(C, D, t=1.0, K_out=6)
        assert tr.E[0].get_mode((0, 0)).real == pytest.approx(0.12, abs=1e-12)
        assert tr.E[1].get_mode((0, 0)).real == pytest.approx(-0.07, abs=1e-12)
        assert sum(f.coeff_norm1() for row in linear_parts(tr) for f in row) < 1e-12
        # G from -grad C averaged along the line theta + t v
        k = np.array([2, 0])
        kv = k @ np.array([0.12, -0.07])
        # I' = -grad C(theta + tv): G_1 mode k amplitude:
        # -2 pi i k_1 * c_k * (e^{2 pi i kv} - 1)/(2 pi i kv)
        c_k = 0.025
        expect = -2j * math.pi * 2 * c_k * (np.exp(2j * math.pi * kv) - 1.0) / (2j * math.pi * kv)
        assert abs(tr.A[0].get_mode((2, 0)) - expect) < 1e-10

    def test_ode_vs_lie_agree(self):
        C, D = small_affine_generator()
        a = affine_flow_ode(C, D, t=1.0, n_steps=64, K_out=12)
        b = F.affine_flow_lie(C, D, t=1.0, K_out=12)
        dE = max((x - y).coeff_norm1() for x, y in zip(a.E, b.E))
        dA = max((x - y).coeff_norm1() for x, y in zip(a.A, b.A))
        assert max(dE, dA) < 1e-8

    def test_flow_property(self):
        C, D = small_affine_generator(seed=5)
        half = F.affine_flow_lie(C, D, t=0.5, K_out=12)
        full = F.affine_flow_lie(C, D, t=1.0, K_out=12)
        comp = F.compose_affine(half, half, K_out=12)
        pts_th = np.random.default_rng(0).uniform(size=(10, 2))
        pts_I = np.random.default_rng(1).uniform(-0.3, 0.3, (10, 2))
        t1, i1 = apply_transform(comp, pts_th, pts_I)
        t2, i2 = apply_transform(full, pts_th, pts_I)
        assert np.max(np.abs(t1 - t2)) < 1e-8
        assert np.max(np.abs(i1 - i2)) < 1e-8

    def test_symplecticity_defect(self):
        C, D = small_affine_generator(seed=7)
        tr = F.affine_flow_lie(C, D, t=1.0, K_out=12)
        assert jacobian_defect(tr, n_pts=16) < 1e-8

    def test_accumulated_symplecticity_defect(self):
        tr = F.affine_flow_lie(*jet_affine_generator(1e-2, 17), K_out=12)
        for seed in (19, 21, 23):
            step = F.affine_flow_lie(*jet_affine_generator(1e-2, seed), K_out=12)
            tr = F.compose_affine(tr, step, K_out=12)
        assert jacobian_defect(tr, n_pts=16) < 1e-8

    def test_compose_affine_pulls_outer_jets_through_phi(self):
        # composite(theta, I; w) = outer(inner(theta, I; w); shift + M w)
        # exactly at w = 0 and up to the dropped w^2 terms elsewhere
        outer = F.affine_flow_lie(*jet_affine_generator(2e-2, 0), K_out=12)
        inner = F.affine_flow_lie(*jet_affine_generator(2e-2, 1), K_out=12)
        shift, M = np.array([0.01, -0.02]), np.array([[0.9, 0.1], [0.05, 1.1]])
        comp = F.compose_affine(outer, inner, K_out=12, phi_shift=shift, phi_matrix=M)
        rng = np.random.default_rng(2)
        th, I = rng.uniform(size=(10, 2)), rng.uniform(-0.3, 0.3, (10, 2))

        def error(w):
            t1, i1 = apply_transform(comp, th, I, w=w)
            t2, i2 = apply_transform(outer, *apply_transform(inner, th, I, w=w),
                                     w=shift + M @ w)
            return max(np.max(np.abs(t1 - t2)), np.max(np.abs(i1 - i2)))

        assert error(np.zeros(2)) < 1e-10
        errs = [error(np.array([0.3, -0.2]) / 2 ** k) for k in range(4)]
        assert all(3.5 < a / b < 4.5 for a, b in zip(errs, errs[1:]))

    def test_apply_affine_grid_identity(self):
        C, D = small_affine_generator(seed=9)
        tr = F.affine_flow_lie(C, D, t=1.0, K_out=12)
        H = FTSeries.zeros(2, 4, D_I=2)
        H.set_mode((0, 0), 1.0, m=(1, 0))
        H.set_mode((0, 0), PHI, m=(0, 1))
        H.set_mode((0, 0), 0.5, m=(2, 0))
        H.set_mode((0, 0), 0.5, m=(0, 2))
        H = H + FTSeries.zeros(2, 4, D_I=2).add_cos((1, 1), 1e-3)
        Hc, = F.apply_affine([H], tr, K_out=12)
        pts_th = np.random.default_rng(0).uniform(size=(30, 2))
        pts_I = np.random.default_rng(1).uniform(-0.3, 0.3, (30, 2))
        tho, Io = apply_transform(tr, pts_th, pts_I)
        lhs = np.array([Hc.eval(pts_th[i:i + 1], I=pts_I[i])[0] for i in range(30)])
        rhs = np.array([H.eval(tho[i:i + 1], I=Io[i])[0] for i in range(30)])
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_list_pullback_equals_one_call_per_series(self):
        # one apply_affine call on a list shares the shift grid, the nodes,
        # the jet split and the powers of A, and must change no bit of any
        # series: jets to degree 1 and 2, action degrees 1 and 2, an empty
        # series, and each series' own bandwidth and report
        tr = F.affine_flow_lie(*jet_affine_generator(2e-2, 3), K_out=8)
        f = FTSeries.zeros(2, 4, D_I=2, D_w=1, n_w=2).add_cos((1, 0), 0.7, m=(1, 0))
        f.add_sin((1, 2), 0.4, m=(0, 2)).add_cos((0, 1), 0.3, w=(1, 0))
        f.set_mode((0, 0), 0.5, m=(1, 1))
        g = FTSeries.zeros(2, 3, D_I=2, D_w=2, n_w=2).add_sin((2, -1), 0.6)
        g.add_cos((1, 1), 0.2, m=(2, 0), w=(0, 1)).add_cos((0, 1), 0.1, w=(1, 1))
        empty = FTSeries.zeros(2, 2, D_I=1, D_w=1, n_w=2)
        Hs = [f, empty, g, f]
        report, parts = {}, [{} for _ in Hs]
        together = F.apply_affine(Hs, tr, K_out=8, report=report)
        apart = [F.apply_affine([H], tr, K_out=8, report=rep)[0] for H, rep in zip(Hs, parts)]
        for a, b in zip(together, apart):
            assert (a.keys, a.K, a.D_I, a.D_w, a.n_w) == (b.keys, b.K, b.D_I, b.D_w, b.n_w)
            assert np.array_equal(a.coef, b.coef)
        assert not together[1].keys and together[2].D_w == 2
        assert set(report) == set(parts[0])
        for key in ("aliasing_mass", "pruned_mass", "taylor_tail"):
            assert report[key] == sum(p[key] for p in parts)
        for key in ("roundoff_floor", "taylor_order"):
            assert report[key] == max(p[key] for p in parts)

    def test_compose_angle_first_order_jet(self):
        # f(theta + E0 + w.E1) to first order in w, against pointwise
        # f(theta + E0) + sum_a w_a E1^a . grad f(theta + E0); the
        # w-linear block of f gets no jet term (it would be degree 2 in w)
        f = FTSeries.zeros(2, 2, D_I=1, D_w=1, n_w=2)
        f.add_cos((1, 0), 0.7).add_sin((1, 2), 0.4).add_cos((0, 1), 0.3, m=(1, 0))
        f.add_cos((2, -1), 0.5, w=(1, 0)).add_sin((0, 1), 0.6, w=(0, 1))
        E0 = [FTSeries.zeros(2, 1).add_sin((1, 0), 0.01),
              FTSeries.zeros(2, 1).add_cos((1, 1), 0.02)]
        E1 = [[FTSeries.zeros(2, 1).add_cos((0, 1), 0.03), None],
              [FTSeries.zeros(2, 1).add_sin((1, -1), 0.02),
               FTSeries.zeros(2, 1).add_cos((1, 0), 0.04)]]
        g, = F.compose_angle([f], E0, E1, K_out=16)
        rng = np.random.default_rng(4)
        for th, I, w in zip(rng.uniform(size=(10, 2)), rng.uniform(-0.5, 0.5, (10, 2)),
                            rng.uniform(-0.5, 0.5, (10, 2))):
            sh = th + np.array([e.eval(th)[0] for e in E0])
            expect = f.eval(sh, I=I, w=w)[0]
            for a in range(2):
                for i, c in enumerate(E1[a]):
                    if c is not None:
                        expect += w[a] * c.eval(th)[0] * f.dtheta(i).eval(sh, I=I)[0]
            assert abs(g.eval(th, I=I, w=w)[0] - expect) < 1e-12

    def test_divergent_tail_raises(self):
        # the coordinate series share lie_flow's tail monitor and its
        # maximum order: no silent truncation of a growing tail
        C, D = small_affine_generator(scale=1.0, seed=3)
        with pytest.raises(F.LieDivergence):
            F.affine_flow_lie(C, D, t=1.0, K_out=8)

    def test_gronwall_magnitude(self):
        # |F| <= n^2 s^-1 C(sigma) |D| exp(n^2 s^-1 C(sigma)|D|) with slack
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 2048))
        C, D = small_affine_generator(seed=11, scale=5e-3)
        tr = F.affine_flow_lie(C, D, t=1.0, K_out=12)
        from udham.series import norm_upper
        s, sigma = 0.2, 0.2
        cd = sum(norm_upper(d, sp, s).bound for d in D)
        lam = 4.0 * cd * sp.cauchy_c(sigma).value / s
        bound = lam * math.exp(lam)
        cf = sum(norm_upper(f, sp, s * (1 - sigma) ** 2).bound
                 for row in linear_parts(tr) for f in row)
        assert cf <= bound
        assert cf > 0


class TestComposeAngle:
    def test_report_carries_taylor_ledger(self):
        f = FTSeries.zeros(2, 6, D_I=1).add_cos((3, -2), 0.8).add_sin((6, 1), 0.5, m=(1, 0))
        E = [FTSeries.zeros(2, 1).add_sin((1, 0), 0.01),
             FTSeries.zeros(2, 1).add_cos((0, 1), 0.02)]
        report = {}
        F.compose_angle([f], E, K_out=8, report=report)
        assert set(report) == {"aliasing_mass", "roundoff_floor", "pruned_mass",
                               "taylor_order", "taylor_tail"}
        assert report["roundoff_floor"] > 0.0 and report["pruned_mass"] > 0.0
        assert isinstance(report["taylor_order"], int) and report["taylor_order"] >= 1
        assert 0.0 < report["taylor_tail"] <= F.TAYLOR_TOL * f.coeff_norm1()
        # the identity shortcut of apply_affine composes nothing
        ident = F.AffineTransform.identity(2, 1)
        report = {}
        F.apply_affine([f], ident, report=report)
        assert report == {"aliasing_mass": 0.0, "roundoff_floor": 0.0, "pruned_mass": 0.0,
                          "taylor_order": 0, "taylor_tail": 0.0}

    def test_reports_merged_left_to_right(self):
        # masses 1.0, 1e-16, 1e-16 sum to (1.0 + 1e-16) + 1e-16 = 1.0 on every
        # Python, not to the compensated 1.0000000000000002 of 3.12's sum()
        parts = [{"aliasing_mass": x, "pruned_mass": x, "taylor_tail": x,
                  "roundoff_floor": 0.0, "taylor_order": 1} for x in (1.0, 1e-16, 1e-16)]
        report = {}
        F._merge_reports(report, parts)
        assert math.fsum([1.0, 1e-16, 1e-16]) != (1.0 + 1e-16) + 1e-16
        assert report["aliasing_mass"] == report["taylor_tail"] == (1.0 + 1e-16) + 1e-16

    def test_empty_series_returns_at_once(self):
        f = FTSeries.zeros(2, 3, D_I=1)
        report = {}
        g, = F.compose_angle([f], [FTSeries.zeros(2, 1).add_cos((1, 0), 0.3)] * 2,
                             K_out=5, report=report)
        assert not g.blocks and (g.K, g.D_I) == (5, 1)
        assert report == {"aliasing_mass": 0.0, "roundoff_floor": 0.0, "pruned_mass": 0.0,
                          "taylor_order": 0, "taylor_tail": 0.0}
        # with nothing to compose, a non-finite shift is never read
        bad = [FTSeries.zeros(2, 1).set_mode((1, 0), np.nan), FTSeries.zeros(2, 1)]
        assert F.compose_angle([f, f], bad, report=report)[1].K == 3
        assert report == {"aliasing_mass": 0.0, "roundoff_floor": 0.0, "pruned_mass": 0.0,
                          "taylor_order": 0, "taylor_tail": 0.0}

    def test_offset_beyond_half_step_hits_order_cap(self):
        # the order cap holds for |delta| <= 1/(2N); twice that must raise,
        # never truncate silently
        f = FTSeries.zeros(2, 8).add_cos((8, 8), 1.0)
        N = 10
        sums = [((0, 0), [0], np.zeros((1, N * N)))]
        order, _ = F._nearest_node_taylor(f, N, slice(None), np.full((N * N, 2), 0.5 / N), sums)
        assert order >= 1
        with pytest.raises(F.TaylorTailError):
            F._nearest_node_taylor(f, N, slice(None), np.full((N * N, 2), 1.0 / N), sums)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_shift_is_a_parameter_error(self, bad):
        f = FTSeries.zeros(2, 2).add_cos((1, 0), 1.0)
        E = [FTSeries.zeros(2, 1).set_mode((1, 0), bad), FTSeries.zeros(2, 1)]
        with pytest.raises(ParameterError):
            F.compose_angle([f], E)


def fourier_sum(series, pts):
    """Each block's sum_k c_k e^{2 pi i k.theta} at the points (P, n), term by term."""
    r = np.arange(-series.K, series.K + 1)
    ks = np.stack(np.meshgrid(*([r] * series.n), indexing="ij"), axis=-1).reshape(-1, series.n)
    waves = np.exp(2j * math.pi * pts @ ks.T)
    return {key: waves @ np.asarray(b).reshape(-1) for key, b in series.blocks.items()}


def random_real_series(rng, K, l1, **dims):
    """A real angle series (n = 2) with one block for each (m, w) in dims['keys']."""
    keys = dims.pop("keys", [((0, 0), ())])
    blocks = {}
    for key in keys:
        arr = rng.normal(size=(2 * K + 1,) * 2) + 1j * rng.normal(size=(2 * K + 1,) * 2)
        blocks[key] = 0.5 * (arr + np.conj(arr[::-1, ::-1]))
    out = FTSeries.from_blocks(FTSeries.zeros(2, K, **dims), blocks)
    return (l1 / out.coeff_norm1()) * out


@given(st.integers(0, 10_000), st.floats(0.0, 0.5), st.integers(1, 5), st.integers(1, 6))
@example(seed=7, amp=0.5, K=5, K_out=2)      # K_out < K/2: modes fold on the grid
@settings(max_examples=25, deadline=None)
def test_property_composition_equals_fourier_sum(seed, amp, K, K_out):
    # f(theta + E0 + w E1) on the collocation grid, with shifts up to
    # |E0|_inf = 1/2 (nearest nodes far from the base nodes), against the
    # Fourier sums of f and grad f at the shifted points
    rng = np.random.default_rng(seed)
    f = random_real_series(rng, K, 1.0, D_I=1, D_w=1, n_w=1,
                           keys=[((0, 0), (0,)), ((1, 0), (0,)), ((0, 0), (1,))])
    E0 = [random_real_series(rng, 1, amp) for _ in range(2)]
    E1 = [[random_real_series(rng, 1, 0.01), None]]
    g, = F.compose_angle([f], E0, E1, K_out=K_out)
    N = 2 * (2 * K_out + 1)
    grid = np.stack(np.meshgrid(np.arange(N) / N, np.arange(N) / N, indexing="ij"),
                    axis=-1).reshape(-1, 2)
    pts = grid + np.stack([fourier_sum(e, grid)[((0, 0), ())].real for e in E0], axis=-1)
    samples = fourier_sum(f, pts)
    e1 = fourier_sum(E1[0][0], grid)[((0, 0), ())].real
    for (m, w), v in fourier_sum(f.dtheta(0), pts).items():
        if w == (0,):
            samples[(m, (1,))] = samples.get((m, (1,)), 0.0) + v * e1
    expect = FTSeries.from_samples(f, list(samples), np.real(list(samples.values())), N,
                                   K=K_out)
    assert np.max(np.abs((g - expect).coef)) <= 1e-12


def random_band_series(rng, n, b, l1):
    """A real angle series of n angles with every mode |k|_inf <= b, scaled to |.|_1 = l1."""
    arr = rng.normal(size=(2 * b + 1,) * n) + 1j * rng.normal(size=(2 * b + 1,) * n)
    blk = 0.5 * (arr + np.conj(arr[(slice(None, None, -1),) * n]))
    out = FTSeries.from_blocks(FTSeries.zeros(n, b), {((0,) * n, ()): blk})
    return (l1 / out.coeff_norm1()) * out


@given(st.integers(0, 10_000), st.integers(1, 2), st.floats(0.0, 2e-3))
@settings(max_examples=15, deadline=None)
def test_property_compose_angle_round_trip(seed, n, e):
    # The inverse shift Et = -E o (id + Et), by fixed-point iteration with
    # compose_angle, undoes the composition: f o (id + E) o (id + Et) = f.
    # f and the E_i hold every mode |k|_inf <= b = 2 with |f|_1 = 1 and
    # |E_i|_1 = e.  A composition keeps |k|_inf <= K_out; its order-m terms
    # in the shift hold modes up to b + m b, so the dropped ones start at
    # M = (K_out - b) // b + 1, with l1 at most x^M e^x / M! per unit of
    # |f|_1, x = 2 pi n b |shift|_1 and |shift|_1 <= 2e for Et.  With the
    # factor 1 + 2 pi n b for the gradient through which Et's truncation
    # enters, that bounds the round trip up to round-off.
    rng = np.random.default_rng(seed)
    b, K_out = 2, 12
    f = random_band_series(rng, n, b, 1.0)
    E = [random_band_series(rng, n, b, e) for _ in range(n)]
    Et = [-1.0 * c for c in E]
    for _ in range(40):
        new = [-1.0 * c for c in F.compose_angle(E, Et, K_out=K_out)]
        step = max((u - v).coeff_norm1() for u, v in zip(new, Et))
        Et = new
        if step <= 1e-17:
            break
    assert max(c.coeff_norm1() for c in Et) <= 2 * e
    back, = F.compose_angle(F.compose_angle([f], E, K_out=K_out), Et, K_out=K_out)
    x = 2 * math.pi * n * b * 2 * e
    M = (K_out - b) // b + 1
    bound = (1 + 2 * math.pi * n * b) * x ** M * math.exp(x) / math.factorial(M)
    assert (back - f).coeff_norm1() <= bound + 1e-13


def random_keyed_series(rng, n, K, l1, keys, **dims):
    """A real series of n angles with a dense |k|_inf <= K block for each
    (m, w) of keys, scaled to |.|_1 = l1."""
    blocks = {}
    for key in keys:
        arr = rng.normal(size=(2 * K + 1,) * n) + 1j * rng.normal(size=(2 * K + 1,) * n)
        blocks[key] = 0.5 * (arr + np.conj(arr[(slice(None, None, -1),) * n]))
    out = FTSeries.from_blocks(FTSeries.zeros(n, K, **dims), blocks)
    return (l1 / out.coeff_norm1()) * out


def composition_case(seed, n, jets, amp, K, K_out=None):
    """f, E0 and E1 (None without jets) for compose_angle: with jets, f has
    the blocks I^m w^w for m in {0, e_0} and |w| <= 1 in two parameters,
    and each parameter shifts its own angle."""
    rng = np.random.default_rng(seed)
    z, e0 = (0,) * n, tuple(int(i == 0) for i in range(n))
    ws = [(0, 0), (1, 0), (0, 1)] if jets else [()]
    f = random_keyed_series(rng, n, K, 1.0, [(m, w) for m in (z, e0) for w in ws],
                            D_I=1, D_w=int(jets), n_w=2 if jets else 0)
    E0 = [random_keyed_series(rng, n, 1, amp, [(z, ())]) for _ in range(n)]
    E1 = None
    if jets:
        E1 = [[random_keyed_series(rng, n, 1, 0.01, [(z, ())]) if i == a % n else None
               for i in range(n)] for a in range(2)]
    return f, E0, E1


def dict_composition(f, E0, E1, K_out):
    """f(theta + E0 + w E1) as compose_angle formed it while every grid of
    an order stayed alive: `nearest_node_taylor_reference`, then the samples
    gathered in a dict in the order the jets reach their keys and copied
    row by row into a stack for `from_samples`.  Also returns whether any
    shifted point has a node other than its own grid point."""
    n = len(E0)
    N = 2 * (2 * K_out + 1)
    shift = np.stack([F._grid_shift(e, N) for e in E0], axis=-1)
    steps = np.rint(N * shift)
    delta = shift - steps / N
    node = slice(None)
    if np.any(steps):
        base = np.indices((N,) * n).reshape(n, -1)
        node = np.ravel_multi_index((base + (steps.T % N).astype(np.int64)) % N, (N,) * n)
    jets = [] if E1 is None else [(a, i, F._grid_shift(c, N)) for a, E1a in enumerate(E1)
                                  for i, c in enumerate(E1a) if c is not None]
    axes = sorted({i for _, i, _ in jets})
    betas = [(0,) * n] + [tuple(int(b == i) for b in range(n)) for i in axes]
    vals, order, tails = nearest_node_taylor_reference(f, N, node, delta, betas)
    acc = dict(zip(f.keys, vals[0]))
    for a, i, e1v in jets:
        for (m, w), v in zip(f.keys, vals[1 + axes.index(i)]):
            if sum(w) < f.D_w:
                key = (m, w[:a] + (w[a] + 1,) + w[a + 1:])
                acc[key] = acc.get(key, 0.0) + v * e1v
    stack = np.zeros((len(acc), N ** n))
    for r, v in enumerate(acc.values()):
        stack[r] = v
    report = {"taylor_order": order, "taylor_tail": tails[0] + sum_left_to_right(
        float(np.max(np.abs(e1v))) * tails[1 + axes.index(i)] for _, i, e1v in jets)}
    g = FTSeries.from_samples(f, list(acc), stack, N, report=report, K=K_out)
    return g, report, np.any(steps)


@given(st.integers(0, 10_000), st.integers(1, 2), st.booleans(), st.floats(0.0, 0.5),
       st.integers(1, 5), st.integers(1, 6))
@example(seed=3, n=1, jets=True, amp=0.5, K=4, K_out=2)
@example(seed=3, n=2, jets=True, amp=0.5, K=4, K_out=2)
@settings(max_examples=30, deadline=None)
def test_property_composition_is_bit_equal_to_all_grids_alive(seed, n, jets, amp, K, K_out):
    # one grid alive at a time adds the same terms in the same order as
    # keeping every grid of an order: the same bits, with and without jets
    f, E0, E1 = composition_case(seed, n, jets, amp, K)
    report = {}
    g, = F.compose_angle([f], E0, E1, K_out=K_out, report=report)
    expect, expect_report, _ = dict_composition(f, E0, E1, K_out)
    assert g.keys == expect.keys and np.array_equal(g.coef, expect.coef)
    assert report == expect_report


@pytest.mark.parametrize("n", [1, 2])
def test_shifted_nodes_are_bit_equal_to_all_grids_alive(n):
    # shifts up to 1/2 move most points to another node (steps != 0), the
    # branch no command reaches
    f, E0, E1 = composition_case(3, n, True, 0.5, 4)
    g, = F.compose_angle([f], E0, E1, K_out=2)
    expect, _, shifted = dict_composition(f, E0, E1, 2)
    assert shifted and g.keys == expect.keys and np.array_equal(g.coef, expect.coef)


def test_composition_holds_one_grid_at_a_time():
    # K = 32 with the 18 blocks I^m w^w (|m| <= 2, |w| <= 1 in two
    # parameters) of a KAM step's series: keeping every grid of an order
    # alive peaked at about 52 MiB
    rng = np.random.default_rng(0)
    ms = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    keys = [(m, w) for m in ms for w in [(0, 0), (1, 0), (0, 1)]]
    f = random_keyed_series(rng, 2, 32, 1.0, keys, D_I=2, D_w=1, n_w=2)
    E0 = [random_keyed_series(rng, 2, 32, 1e-3, [((0, 0), ())]) for _ in range(2)]
    E1 = [[random_keyed_series(rng, 2, 32, 1e-4, [((0, 0), ())]) for _ in range(2)]
          for _ in range(2)]
    tracemalloc.start()
    try:
        g, = F.compose_angle([f], E0, E1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.keys) == 18 and peak <= 16 * 2 ** 20, peak / 2 ** 20


class TestLieFlow:
    def test_zero_generator(self):
        H = FTSeries.zeros(2, 3, D_I=1).add_cos((1, 0), 0.3)
        Y = FTSeries.zeros(2, 3, D_I=1)
        assert (F.lie_flow(Y, H) - H).coeff_norm1() < 1e-15

    def test_energy_invariance(self):
        C, D = small_affine_generator(seed=13)
        X = as_generator_series(C, D)
        assert (F.lie_flow(X, X, K_out=12) - X).coeff_norm1() < 1e-10

    def test_agrees_with_affine_composition(self):
        C, D = small_affine_generator(seed=15)
        X = as_generator_series(C, D)
        tr = F.affine_flow_lie(C, D, t=1.0, K_out=12)
        H = FTSeries.zeros(2, 4, D_I=2)
        H.set_mode((0, 0), 1.0, m=(1, 0))
        H.set_mode((0, 0), 0.5, m=(2, 0))
        H = H + FTSeries.zeros(2, 4, D_I=2).add_cos((1, 1), 2e-3)
        a = F.lie_flow(X, H, K_out=12, D_I_out=2)
        b, = F.apply_affine([H], tr, K_out=12)
        assert (a - b).coeff_norm1() < 1e-10

    def test_second_order_accuracy_of_homological_step(self):
        # H o Phi_Y - H - {H, Y} scales quadratically in Y
        H = FTSeries.zeros(2, 4, D_I=2)
        H.set_mode((0, 0), 1.0, m=(1, 0))
        H.set_mode((0, 0), 0.5, m=(2, 0))
        H = H + FTSeries.zeros(2, 4, D_I=2).add_sin((1, 1), 1.0)
        sizes = []
        for eps in [1e-3, 5e-4]:
            Y = FTSeries.zeros(2, 4, D_I=0).add_cos((1, 1), eps)
            err = F.lie_flow(Y, H, K_out=8, D_I_out=2) - H - poisson_bracket(H, Y, K_out=8, D_I_out=2)
            sizes.append(err.coeff_norm1())
        slope = math.log(sizes[0] / sizes[1]) / math.log(2.0)
        assert 1.9 < slope < 2.1

    def test_divergence_detected(self):
        Y = FTSeries.zeros(1, 2, D_I=1).add_cos((1,), 50.0)
        Y.set_mode((1,), 30.0, m=(1,))
        H = FTSeries.zeros(1, 2, D_I=1)
        H.set_mode((0,), 1.0, m=(1,))
        with pytest.raises(F.LieDivergence):
            F.lie_flow(Y, H, max_order=12, K_out=4)


class TestIntegrators:
    def test_linear_flow_exact(self):
        om = np.array([1.0, PHI])
        traj = F.integrate_midpoint(
            grad_theta=lambda th, I: np.zeros(2),
            grad_I=lambda th, I: om,
            theta0=np.array([0.1, 0.2]), I0=np.array([0.5, -0.2]),
            t_end=10.0, dt=0.25)
        assert np.max(np.abs(traj.thetas[-1] - (np.array([0.1, 0.2]) + 10 * om))) < 1e-12
        assert np.max(np.abs(traj.actions[-1] - np.array([0.5, -0.2]))) < 1e-14

    def test_midpoint_energy_conservation(self):
        def gth(th, I):
            return 2.0 * math.pi * np.sin(2.0 * math.pi * th)

        def gI(th, I):
            return I

        energy = lambda th, I: 0.5 * float(I ** 2) - math.cos(2.0 * math.pi * float(th))
        traj = F.integrate_midpoint(gth, gI, np.array(0.05), np.array(2.4),
                                    t_end=5.0, dt=2e-4, sample_every=200)
        es = np.array([energy(th, I) for th, I in zip(traj.thetas, traj.actions)])
        assert np.max(np.abs(es - es[0])) < 1e-6

    def test_midpoint_stall_raises_stiffness_error(self):
        # dt times the gradient's Lipschitz constant is far above 1, so the
        # fixed-point iteration for the midpoint cannot contract
        gth = lambda th, I: 1e6 * np.sin(2.0 * math.pi * th)
        gI = lambda th, I: I
        with pytest.raises(F.StiffnessError, match="step 1$"):
            F.integrate_midpoint(gth, gI, np.array(0.2), np.array(0.1),
                                 t_end=0.1, dt=0.1)


class TestPendulum:
    def test_monotone_I_B(self):
        eps_prev = math.inf
        for B in range(3, 31):
            orb = F.pendulum_periodic_point(B)
            assert 0.0 < orb.eps < 1.0            # I_B in (2, 3)
            assert orb.eps < eps_prev             # strictly decreasing -> 2
            eps_prev = orb.eps

    def test_period_roundtrip(self):
        for B in [3, 7, 19, 30]:
            orb = F.pendulum_periodic_point(B)
            assert F.pendulum_period_of_eps(orb.eps) == pytest.approx(B, abs=1e-11)

    def test_tau_odd_and_half_period(self):
        orb = F.pendulum_periodic_point(5)
        assert orb.tau(0.0) == 0.0
        for th in [0.1, 0.3, 0.45]:
            assert orb.tau(th) + orb.tau(-th) == pytest.approx(0.0, abs=1e-14)
        assert orb.tau(0.5) == pytest.approx(2.5, rel=1e-12)

    def test_vartheta_value(self):
        assert F.VARTHETA == pytest.approx(0.4725062709989, abs=1e-12)

    def test_cauchy_radius_inside_analyticity_margin(self):
        # tau_norm_certificate's circles must stay in the strip of width
        # 1/2 - vartheta where tau is analytic uniformly in B
        assert 0.0 < F.TAU_CAUCHY_RADIUS < 0.5 - F.VARTHETA

    def test_exclusion_window(self):
        # |theta_B(t)| >= vartheta on [1/2, B - 1/2]: tau is odd and
        # increasing, so |theta_B| is least at the two ends, and the
        # separatrix limit is attained at t = 1/2 with margin -> 0+
        for B in [3, 5, 12, 30]:
            orb = F.pendulum_periodic_point(B)
            for t in (0.5, B - 0.5):
                assert abs(orb.theta_of_t(t)) - F.VARTHETA >= -1e-12

    def test_theta_of_t_roundtrip(self):
        orb = F.pendulum_periodic_point(7)
        for t in [0.2, 1.1, 3.4]:
            # near the plateau theta compresses exponentially, so invert
            # and compare in time with a tolerance matching that conditioning
            th = orb.theta_of_t(t)
            assert orb.tau(th) % orb.B == pytest.approx(t % orb.B, abs=1e-6)

    def test_tau_theta_round_trip(self):
        # theta -> tau -> theta_of_t on a fast orbit, a slow one and the
        # separatrix (B = 1000 underflows eps to 0)
        for B in [3, 7, 1000]:
            orb = F.pendulum_periodic_point(B)
            for th in [*np.linspace(0.01, 0.49, 25), 1e-6, 0.4999, 0.5 - 1e-9]:
                assert orb.theta_of_t(orb.tau(th)) == pytest.approx(th, abs=1e-14)

    def test_theta_of_t_below_half_period(self):
        # on B = 8 the computed tau(1/2) is 4 - 8.9e-16, one rounding short
        # of B/2, so times in between have no root in the bracket
        orb = F.pendulum_periodic_point(8)
        assert orb.tau(0.5) < 4.0
        for t in [math.nextafter(4.0, 0.0), 4.0 - 1e-15, 4.0]:
            assert orb.theta_of_t(t) == 0.5

    def test_gauss_kronrod_rule_degrees(self):
        # K21 integrates x^d over [-1, 1] exactly up to d = 31, G10 up to 19
        x = F.GK_NODES
        assert np.array_equal(x, -x[::-1])
        assert np.allclose(x[1:20:2], np.sort(np.polynomial.legendre.leggauss(10)[0]),
                           rtol=0, atol=1e-15)
        for d in range(32):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            assert F.GK_KRONROD @ x ** d == pytest.approx(exact, abs=4e-16), d
            if d < 20:
                assert F.GK_GAUSS @ x ** d == pytest.approx(exact, abs=4e-16), d

    @staticmethod
    def mp_piece(a2, u_lo, u_hi):
        """int_{u_lo}^{u_hi} du / sqrt(4 sin^2(pi u) + a2) at 40 digits,
        split geometrically from the peak width sqrt(a2) up to u_hi."""
        import mpmath as mp
        with mp.workdps(40):
            a2 = mp.mpf(a2)
            lo = max(mp.mpf(u_lo), mp.sqrt(a2) / 100)
            n = int(mp.ceil(mp.log10(u_hi / lo) / 3)) + 2
            pts = [mp.mpf(u_lo)] + [mp.exp(v) for v in mp.linspace(mp.log(lo), mp.log(u_hi), n)]
            if pts[1] == pts[0]:
                pts = pts[1:]
            val = mp.quad(lambda u: 1 / mp.sqrt(4 * mp.sin(mp.pi * u) ** 2 + a2), pts)
        return float(val)

    def test_quadrature_against_mpmath(self):
        # each piece within the epsrel = 1e-13 the quadrature is given
        for a2 in [4e-3, 1e-10, 1e-50, 1e-150]:
            orb = F.PendulumOrbit(B=0.0, eps=a2 / 4.0)
            for th in [0.1, 0.25]:   # tau up to theta = 1/4 is the direct piece
                ref = self.mp_piece(orb.a2, 0.5 - th, 0.5)
                assert orb.tau(th) == pytest.approx(ref, rel=1e-13, abs=0)
            for u_lo in [0.0, 0.1, 0.2]:
                ref = self.mp_piece(a2, u_lo, 0.25)
                assert F._sinh_piece(a2, u_lo, 0.25) == pytest.approx(ref, rel=1e-13, abs=0)
        for u_lo in [1e-12, 1e-3, 0.2]:   # separatrix: log substitution
            ref = self.mp_piece(0.0, u_lo, 0.25)
            assert F._sinh_piece(0.0, u_lo, 0.25) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_quadrature_and_root_finder_refuse(self):
        with pytest.raises(F.QuadratureError, match="more than 5 panels"):
            F._quad(lambda x: np.sin(1e4 * x), 0.0, 1.0, limit=5)
        with pytest.raises(F.QuadratureError, match="no sign change"):
            F._regula_falsi(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15)

    def test_root_finder_takes_an_exact_root_at_either_end(self):
        assert F._regula_falsi(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-15) == 1.0
        assert F._regula_falsi(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-15) == 1.0

    def test_lambda_probe_bounded(self):
        # sup_B |tau_B|_{M,s} < oo : certificates stabilize along B
        for fam in [W.gevrey(1), W.gevrey(2), W.exp_sqrt()]:
            sp = W.ScaleProfile(W.build_sequence(fam, 2048))
            certs = [F.tau_norm_certificate(F.pendulum_periodic_point(B), sp, s=0.01)
                     for B in [3, 10, 20, 30]]
            assert max(certs) <= certs[0] * 1.01

    def test_time1_map_returns_to_periodic_point(self):
        # hyperbolic amplification ~ e^{2 pi (B-1)} bounds the achievable
        # return accuracy; B = 3 keeps it inside the 1e-6 target
        orb = F.pendulum_periodic_point(3)
        flow = F.pendulum_time1_map(1.0, rtol=1e-14)
        th, I = np.array(0.0), np.array(orb.I_B)
        for _ in range(3):
            th, I = flow(th, I)
        assert abs((th + 0.5) % 1.0 - 0.5) < 1e-6
        assert abs(I - orb.I_B) < 1e-6
