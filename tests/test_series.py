import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import block, check_reality, homological_integral_oracle, occupied_band
from udham import dioph as D
from udham import flows as F
from udham import series as S
from udham import weights as W
from udham.series import (FTSeries, average_periodic, average_zero_mode,
                          decay_check, norm_upper, poisson_bracket, product,
                          solve_homological_periodic)

SP = W.ScaleProfile(W.build_sequence(W.gevrey(2), 4096))


def rand_series(n, K, seed, D_I=0):
    r = np.random.default_rng(seed)
    blocks = {}
    for m in ([(0,) * n] if D_I == 0 else [(0,) * n, (1,) + (0,) * (n - 1)]):
        arr = r.normal(size=(2 * K + 1,) * n) + 1j * r.normal(size=(2 * K + 1,) * n)
        flip = np.conj(arr[(slice(None, None, -1),) * n])
        blocks[(m, ())] = 0.5 * (arr + flip)
    return FTSeries.from_blocks(FTSeries.zeros(n, K, D_I=D_I), blocks)


class TestProduct:
    def test_unit(self):
        g = rand_series(2, 3, 5)
        one = FTSeries.zeros(2, 3)
        one.set_mode((0, 0), 1.0)
        p = product(one, g, K_out=3)
        assert max(abs(p.get_mode(k, m, w) - c) for k, m, w, c in g.terms()) < 1e-15

    def test_cos_squared(self):
        f = FTSeries.zeros(1, 2).add_cos((1,))
        p = product(f, f, K_out=2).prune()
        assert p.get_mode((0,)).real == pytest.approx(0.5, abs=1e-14)
        assert p.get_mode((2,)).real == pytest.approx(0.25, abs=1e-14)
        assert abs(p.get_mode((1,))) < 1e-15

    def test_against_grid_oracle(self):
        a, b = rand_series(2, 8, 1), rand_series(2, 2, 2)
        ab = product(a, b, K_out=10)
        N = 64
        th = np.stack(np.meshgrid(*[np.arange(N) / N] * 2, indexing="ij"),
                      -1).reshape(-1, 2)
        assert np.max(np.abs(a.eval(th) * b.eval(th) - ab.eval(th))) < 1e-12

    def test_truncation_monitor(self):
        a, b = rand_series(1, 6, 3), rand_series(1, 6, 4)
        rep = {}
        product(a, b, K_out=6, report=rep)
        assert rep["discarded_fourier"] > 0
        rep2 = {}
        product(a, b, K_out=12, report=rep2)
        assert rep2["discarded_fourier"] < 1e-12
        # an operand without monomials gives the empty series and drops nothing
        rep3 = {}
        p = product(a, FTSeries.zeros(1, 2, D_I=1), K_out=5, report=rep3)
        assert not p.keys and (p.K, p.D_I, p.D_w) == (5, 1, 0)
        assert rep3 == {"discarded_fourier": 0.0, "discarded_action": 0.0,
                        "roundoff_floor": 0.0, "pruned_mass": 0.0, "transform_length": 0}

    def test_action_degree_convolution(self):
        f = FTSeries.zeros(1, 1, D_I=1)
        f.set_mode((0,), 2.0, m=(1,))
        g = FTSeries.zeros(1, 1, D_I=1)
        g.set_mode((0,), 3.0, m=(1,))
        p = product(f, g)
        assert p.get_mode((0,), m=(2,)) == pytest.approx(6.0)

    def test_certificate_submultiplicative(self):
        a, b = rand_series(2, 3, 7), rand_series(2, 3, 8)
        ca = norm_upper(a, SP, 0.2).bound
        cb = norm_upper(b, SP, 0.2).bound
        cab = norm_upper(product(a, b, K_out=6), SP, 0.2).bound
        assert cab <= ca * cb * (1.0 + 1e-12)


class TestPoissonBracket:
    def test_action_vs_integrable(self):
        I1 = FTSeries.zeros(2, 1, D_I=2)
        I1.set_mode((0, 0), 1.0, m=(1, 0))
        g = FTSeries.zeros(2, 1, D_I=2)
        g.set_mode((0, 0), 0.4, m=(0, 2))
        assert poisson_bracket(I1, g).coeff_norm1() == 0.0

    def test_antisymmetry(self):
        f = rand_series(2, 4, 3, D_I=1)
        f = f * (1.0 / f.coeff_norm1())
        assert poisson_bracket(f, f).coeff_norm1() < 1e-14

    def test_linear_flow_derivative(self):
        # {sin(2 pi th1), w.I} = 2 pi w1 cos(2 pi th1) under
        # {f,g} = dth f . dI g - dI f . dth g
        om = [0.3, 0.7]
        LI = FTSeries.zeros(2, 1, D_I=1)
        LI.set_mode((0, 0), om[0], m=(1, 0))
        LI.set_mode((0, 0), om[1], m=(0, 1))
        s1 = FTSeries.zeros(2, 1).add_sin((1, 0))
        pb = poisson_bracket(s1, LI)
        expect = FTSeries.zeros(2, 1).add_cos((1, 0), 2.0 * math.pi * om[0])
        assert max(abs(pb.get_mode(k, m, w) - c) for k, m, w, c in expect.terms()) < 1e-13

    def test_jacobi_identity(self):
        f = rand_series(2, 2, 21, D_I=1)
        g = rand_series(2, 2, 22, D_I=1)
        h = rand_series(2, 2, 23, D_I=1)
        kw = dict(K_out=8, D_I_out=3)
        j = poisson_bracket(poisson_bracket(f, g, **kw), h, **kw) \
            + poisson_bracket(poisson_bracket(g, h, **kw), f, **kw) \
            + poisson_bracket(poisson_bracket(h, f, **kw), g, **kw)
        assert j.coeff_norm1() < 1e-9 * max(1.0, f.coeff_norm1() * g.coeff_norm1() * h.coeff_norm1())


class TestAveraging:
    def test_single_nonresonant_mode_vanishes(self):
        pv = D.periodic_from_rational((1, 0), 1)
        f = FTSeries.zeros(2, 3).add_cos((1, 1))
        assert average_periodic(f, pv).coeff_norm1() == 0.0

    def test_resonant_mode_fixed(self):
        pv = D.periodic_from_rational((1, 0), 1)
        f = FTSeries.zeros(2, 3).add_cos((0, 2), 0.7)
        av = average_periodic(f, pv)
        assert (av - f).coeff_norm1() == 0.0

    def test_projection_idempotent_and_orthogonal(self):
        pv = D.periodic_from_rational((2, 3), 3)
        f = rand_series(2, 5, 12)
        P = average_periodic(f, pv)
        assert (average_periodic(P, pv) - P).coeff_norm1() == 0.0
        # range orthogonal to kernel in the coefficient l2 inner product
        R = f - P
        dot = sum(np.vdot(P.blocks[k], R.blocks[k])
                  for k in P.blocks if k in R.blocks)
        assert abs(dot) < 1e-12

    def test_zbasis_composition_is_zero_mode(self):
        fp = D.golden_profile()
        zb = D.zbasis_approx(fp, 5)
        rng = np.random.default_rng(5)
        for trial in range(100):
            f = rand_series(2, 4, 100 + trial)
            g1 = average_periodic(average_periodic(f, zb.vectors[0]), zb.vectors[1])
            g2 = average_zero_mode(f)
            assert (g1 - g2).coeff_norm1() <= 1e-12 * max(1.0, f.coeff_norm1())

    def test_commutes_with_lv_at_truncation(self):
        pv = D.periodic_from_rational((2, 3), 3)
        Lv = FTSeries.zeros(2, 1, D_I=1)
        Lv.set_mode((0, 0), pv.v[0], m=(1, 0))
        Lv.set_mode((0, 0), pv.v[1], m=(0, 1))
        f = rand_series(2, 5, 31)
        P = average_periodic(f, pv)
        assert poisson_bracket(P, Lv, K_out=5).coeff_norm1() < 1e-12


class TestHomological:
    def test_divisor_formula_known_amplitude(self):
        pv = D.periodic_from_rational((1, 2), 2)  # v = (1/2, 1), T = 2
        k = (1, 1)  # k.v = 3/2 != 0
        f = FTSeries.zeros(2, 2).add_sin(k)
        Y = solve_homological_periodic(f, pv)
        kv = k[0] * pv.v[0] + k[1] * pv.v[1]
        assert abs(Y.get_mode(k)) == pytest.approx(0.5 / (2.0 * math.pi * abs(kv)), rel=1e-13)

    def test_divisor_vs_integral(self):
        pv = D.periodic_from_rational((2, 3), 3)
        f = rand_series(2, 5, 4)
        f_nr = f - average_periodic(f, pv)
        Y1 = solve_homological_periodic(f_nr, pv)
        Y2 = homological_integral_oracle(f, pv)
        assert max(abs(Y1.get_mode(k, m, w) - Y2.get_mode(k, m, w))
                   for k, m, w, c in Y1.terms()) < 1e-12

    def test_bracket_residual(self):
        pv = D.periodic_from_rational((2, 3), 3)
        Lv = FTSeries.zeros(2, 1, D_I=1)
        Lv.set_mode((0, 0), pv.v[0], m=(1, 0))
        Lv.set_mode((0, 0), pv.v[1], m=(0, 1))
        f = rand_series(2, 5, 6)
        f_nr = f - average_periodic(f, pv)
        Y = solve_homological_periodic(f_nr, pv)
        res = poisson_bracket(Y, Lv, K_out=5) - f_nr
        assert res.coeff_norm1() < 1e-10

    def test_resonant_input_is_zero(self):
        pv = D.periodic_from_rational((1, 0), 1)
        f = FTSeries.zeros(2, 3).add_cos((0, 1))
        assert solve_homological_periodic(f, pv).coeff_norm1() == 0.0


class TestNormCertificate:
    def test_constant(self):
        one = FTSeries.zeros(2, 1)
        one.set_mode((0, 0), 1.0)
        assert norm_upper(one, SP, 1.0).bound == pytest.approx(W.C_NORM)

    def test_single_cosine_bound(self):
        for p in [1, 2, 3]:
            f = FTSeries.zeros(2, 3).add_cos((p, 0))
            cert = norm_upper(f, SP, 0.2).bound
            target = W.C_NORM * math.exp(SP.omega_value(8.0 * math.pi * p * 0.2))
            assert cert <= target * (1.0 + 1e-12)

    def test_subadditive_on_splits(self):
        rng = np.random.default_rng(17)
        f = rand_series(2, 4, 18)
        for _ in range(10):
            mask = rng.uniform(size=(9, 9)) < 0.5
            a = FTSeries.from_blocks(f, {((0, 0), ()): np.where(mask, block(f), 0.0)})
            b = FTSeries.from_blocks(f, {((0, 0), ()): np.where(mask, 0.0, block(f))})
            ca = norm_upper(a, SP, 0.1).bound
            cb = norm_upper(b, SP, 0.1).bound
            cf = norm_upper(f, SP, 0.1).bound
            assert cf <= ca + cb + 1e-9

    def test_constant_term_floor(self):
        f = FTSeries.zeros(2, 2).add_cos((1, 1), 0.2)
        f.set_mode((0, 0), 0.3)
        assert norm_upper(f, SP, 0.3).bound >= W.C_NORM * 0.3

    def test_blocks_summed_left_to_right(self):
        # three blocks of one degree whose sums b0, b1, b2 each fall below
        # half an ulp of b0 while b1 + b2 does not: the bound is
        # (b0 + b1) + b2 = b0 on every Python, not 3.12's compensated sum()
        keys = [(2, 0), (1, 1), (0, 2)]

        def cert(coefs):
            f = FTSeries.zeros(2, 1, D_I=2)
            for c, m in zip(coefs, keys):
                f.set_mode((0, 0), c, m=m)
            return norm_upper(f, SP, 0.3).bound

        tiny = 0.75 * 2.0 ** -54 / math.frexp(cert([1.0]))[0]
        blocks = [cert([1.0]), cert([0.0, tiny]), cert([0.0, 0.0, tiny])]
        assert math.fsum(blocks) != (blocks[0] + blocks[1]) + blocks[2] == blocks[0]
        assert cert([1.0, tiny, tiny]) == (blocks[0] + blocks[1]) + blocks[2]


class TestDecay:
    def test_constructed_decay_passes(self):
        s = 0.15
        f = FTSeries.zeros(2, 6)
        for k1 in range(-6, 7):
            for k2 in range(-6, 7):
                kinf = max(abs(k1), abs(k2))
                amp = math.exp(-SP.omega_value(2.0 * math.pi * s * kinf)) / (1.0 + k1**2 + k2**2)
                f.set_mode((k1, k2), amp)
        rep = decay_check(f, SP, s, bound=W.C_NORM)
        assert rep["passed"]

    def test_inflated_mode_located(self):
        s = 0.15
        f = FTSeries.zeros(2, 6)
        f.set_mode((0, 0), 0.1)
        f.set_mode((5, 5), 10.0)
        f.set_mode((-5, -5), 10.0)
        rep = decay_check(f, SP, s, bound=W.C_NORM)
        assert not rep["passed"]
        assert rep["worst_k"] in [(5, 5), (-5, -5)]

    def test_analytic_envelope_exponential(self):
        sp1 = W.ScaleProfile(W.build_sequence(W.gevrey(1), 4096))
        s = 0.1
        ks = np.arange(1, 30)
        env = np.array([sp1.omega_value(2 * math.pi * s * k) for k in ks])
        slope = np.polyfit(ks[10:], env[10:], 1)[0]
        assert slope > 0.1  # Omega(s|k|) grows linearly in |k| => e^{-c|k|}


class TestPrune:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mode_raises(self, bad):
        # max |c| > 0 is False for NaN, so a NaN block would be dropped as zero
        f = FTSeries.zeros(2, 2).set_mode((1, 0), bad)
        with pytest.raises(W.ParameterError):
            f.prune()


class TestEvalAndIO:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eval_matches_direct_sum(self, n):
        f = rand_series(n, 3, 40)
        pts = np.random.default_rng(1).uniform(size=(7, n))
        direct = np.zeros(7, dtype=complex)
        for k, m, w, c in f.terms():
            direct += c * np.exp(2j * math.pi * (pts @ np.array(k)))
        assert np.max(np.abs(f.eval(pts) - direct.real)) < 1e-12

    def test_grid_roundtrip(self):
        f = rand_series(2, 6, 41)
        vals = f.derivative_grid((0, 0), 32)[0]
        coef = np.fft.fftn(vals) / 32**2
        idx = np.arange(-6, 7) % 32
        assert np.max(np.abs(coef[np.ix_(idx, idx)] - block(f))) < 1e-12

    def test_from_samples_rejects_grid_below_bandwidth(self):
        # N = 2K points cannot hold the 2K + 1 kept modes of each axis
        with pytest.raises(W.ParameterError):
            FTSeries.from_samples(FTSeries.zeros(1, 3), [((0,), ())], np.ones((1, 6)), 6)

    def test_reality_invariant(self):
        f = rand_series(2, 4, 42)
        assert check_reality(f) < 1e-14
        p = product(f, f, K_out=8)
        assert check_reality(p) < 1e-14
        pts = np.random.default_rng(2).uniform(size=(5, 2))
        assert np.max(np.abs(np.imag(f.eval_blocks(pts)[((0, 0), ())]))) <= 1e-12

    def test_serialization_roundtrip(self):
        f = FTSeries.zeros(2, 2, D_I=1, D_w=1, n_w=2)
        f.set_mode((1, -2), 0.3 + 0.04j, m=(1, 0), w=(0, 1))
        f.set_mode((0, 0), -1.25)
        assert f.to_text().splitlines()[1] == "2 2 1 2 1 1.0 1.0 0.0 1"
        g = FTSeries.from_text(f.to_text())
        assert g.K == f.K and g.n_w == 2
        assert g.get_mode((1, -2), m=(1, 0), w=(0, 1)) == 0.3 + 0.04j
        assert g.get_mode((0, 0)) == -1.25

    @pytest.mark.parametrize("header", ["2 2 0 0 0 1.0 1.0 0.0 0", "2 2 0 0 0"])
    def test_from_text_rejects_other_headers(self, header):
        with pytest.raises(W.ParameterError):
            FTSeries.from_text(f"ftseries 1\n{header}\n1 0 0 0 0.5 0.0\n")


@given(st.integers(min_value=0, max_value=999))
@settings(max_examples=30, deadline=None)
def test_property_product_commutes(seed):
    a = rand_series(1, 3, seed)
    b = rand_series(1, 2, seed + 1000)
    ab = product(a, b, K_out=5)
    ba = product(b, a, K_out=5)
    assert (ab - ba).coeff_norm1() < 1e-12


def _direct_convolution(a, b):
    """Linear convolution of two (2K+1)^n blocks by a loop over a's modes;
    mode k of the result sits at index k + K_a + K_b."""
    out = np.zeros(tuple(x + y - 1 for x, y in zip(a.shape, b.shape)), dtype=complex)
    for idx in np.ndindex(a.shape):
        out[tuple(slice(i, i + s) for i, s in zip(idx, b.shape))] += a[idx] * b
    return out


def _least_5_smooth(L):
    return min(m for m in (2**a * 3**b * 5**c for a in range(12) for b in range(8)
                           for c in range(6)) if m >= L)


def _oracle_product(f, g, K_out, D_I_out):
    """Blocks, discarded Fourier mass and discarded action mass of the
    product of the real projections of f and g, by direct convolution."""
    def real(c):
        return 0.5 * (c + np.conj(c[(slice(None, None, -1),) * f.n]))
    rows, disc_action = {}, 0.0
    for (m1, w1), a in f.blocks.items():
        for (m2, w2), b in g.blocks.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            w = tuple(x + y for x, y in zip(w1, w2))
            if sum(w) > max(f.D_w, g.D_w):
                continue
            full = _direct_convolution(real(a), real(b))
            if sum(m) > D_I_out:
                disc_action += np.sum(np.abs(full))
            else:
                rows[(m, w)] = rows.get((m, w), 0.0) + full
    K_full = f.K + g.K
    kk = min(K_out, K_full)
    window = (slice(K_full - kk, K_full + kk + 1),) * f.n
    disc_fourier = sum(np.sum(np.abs(c)) - np.sum(np.abs(c[window])) for c in rows.values())
    blocks = {key: np.pad(c[window], K_out - kk) for key, c in rows.items()}
    return blocks, disc_fourier, disc_action


@st.composite
def product_operands(draw):
    n = draw(st.integers(1, 3))
    n_w = draw(st.integers(0, 1))
    D_w = draw(st.integers(0, 1)) if n_w else 0
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    ws = [(0,) * n_w, (1,) * n_w][:D_w + 1]
    monomials = [((i, 0, 0)[:n], w) for i in range(3) for w in ws]
    monomials += [((0, 1, 0)[:n], ws[0])] if n > 1 else []
    ops = []
    for _ in range(2):
        K = draw(st.integers(0, {1: 6, 2: 4, 3: 2}[n]))
        keys = draw(st.lists(st.sampled_from(monomials), max_size=3, unique=True))
        decay = draw(st.floats(0.0, 8.0))
        kk = np.abs(np.indices((2 * K + 1,) * n) - K).sum(axis=0)
        blocks = {}
        for key in keys:
            c = r.normal(size=kk.shape) + 1j * r.normal(size=kk.shape)
            c = 0.5 * (c + np.conj(c[(slice(None, None, -1),) * n])) * np.exp(-decay * kk)
            if draw(st.booleans()):  # +-k entries that differ by round-off
                c = c * (1.0 + 2.0 ** -52 * r.normal(size=kk.shape))
            blocks[key] = c
        ops.append(FTSeries.from_blocks(
            FTSeries.zeros(n, K, D_I=2, D_w=D_w, n_w=n_w), blocks))
    f, g = ops
    K_out = draw(st.integers(0, f.K + g.K + 2))
    D_I_out = draw(st.integers(0, 4))
    return f, g, K_out, D_I_out


@given(product_operands())
@settings(max_examples=60, deadline=None)
@example((FTSeries.zeros(2, 3, D_I=2), rand_series(2, 2, 1, D_I=1), 4, 2))
def test_property_product_equals_direct_convolution(case):
    f, g, K_out, D_I_out = case
    rep = {}
    p = product(f, g, K_out=K_out, D_I_out=D_I_out, report=rep)
    blocks, disc_fourier, disc_action = _oracle_product(f, g, K_out, D_I_out)
    floor = rep["roundoff_floor"]
    L = _least_5_smooth(2 * (f.K + g.K) + 1)
    assert floor == pytest.approx(np.finfo(float).eps * f.n * math.log2(L)
                                  * f.coeff_norm1() * g.coeff_norm1(), rel=1e-12)
    assert (p.K, p.D_I) == (K_out, D_I_out) and set(p.keys) <= set(blocks)
    assert check_reality(p) == 0.0
    for key, c in blocks.items():
        got = block(p, *key)
        kept = got != 0
        assert np.all(np.abs(got[kept] - c[kept]) <= floor)
        assert np.all(np.abs(c[~kept]) <= 2.0 * floor)
    slack = floor * (2 * (f.K + g.K) + 1) ** f.n * max(len(blocks), 1)
    assert rep["discarded_fourier"] == pytest.approx(disc_fourier, rel=1e-12, abs=slack)
    assert rep["discarded_action"] == pytest.approx(disc_action, rel=1e-12,
                                                    abs=slack * len(f.keys) * len(g.keys))
    assert 0.0 <= rep["pruned_mass"] <= floor * (2 * K_out + 1) ** f.n * len(blocks)


@given(product_operands(), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
@example((FTSeries.from_blocks(FTSeries.zeros(2, 3, D_I=2), {((0, 0), ()): np.zeros((7, 7))}),
          rand_series(2, 2, 1, D_I=1), 4, 2), 9)      # a present monomial holding no mode
def test_property_product_sized_by_occupied_band(case, pad):
    # operands rebanded far above their occupied bands b give the product
    # of the unpadded operands, on a transform sized by b, not by the stored K
    f, g, K_out, D_I_out = case
    ref_rep, rep = {}, {}
    ref = product(f, g, K_out=K_out, D_I_out=D_I_out, report=ref_rep)
    p = product(f.rebanded(f.K + pad), g.rebanded(g.K + 2 * pad), K_out=K_out,
                D_I_out=D_I_out, report=rep)
    b_f, b_g = occupied_band(f), occupied_band(g)
    if min(b_f, b_g) < 0:
        empty_rep = {}
        empty = product(FTSeries.zeros(f.n, f.K, D_I=f.D_I, D_w=f.D_w, n_w=f.n_w), g,
                        K_out=K_out, D_I_out=D_I_out, report=empty_rep)
        assert not p.keys and not empty.keys
        assert (p.K, p.D_I, p.D_w) == (empty.K, empty.D_I, empty.D_w)
        assert rep == empty_rep and rep["transform_length"] == 0
        return
    assert rep["transform_length"] == _least_5_smooth(2 * (b_f + b_g) + 1)
    floor = rep["roundoff_floor"]
    assert floor == pytest.approx(np.finfo(float).eps * f.n * math.log2(rep["transform_length"])
                                  * f.coeff_norm1() * g.coeff_norm1(), rel=1e-12)
    assert (p.K, p.D_I, p.D_w) == (ref.K, ref.D_I, ref.D_w)
    for key in set(p.keys) | set(ref.keys):
        assert np.all(np.abs(block(p, *key) - block(ref, *key)) <= floor)
    for name in ("discarded_fourier", "discarded_action"):
        assert rep[name] == pytest.approx(ref_rep[name], rel=1e-12, abs=1e-300)


@given(product_operands(), st.data())
@settings(max_examples=60, deadline=None)
def test_property_product_without_report_equals_full_length(case, data):
    # without a report the product runs at the 3/2-rule length
    # b_f + b_g + K_out + 1, where only dropped modes fold; with one, at
    # 2(b_f + b_g) + 1, where none does
    f, g, _, D_I_out = case
    K_full = occupied_band(f) + occupied_band(g)
    assume(K_full >= 1 and min(occupied_band(f), occupied_band(g)) >= 0)
    K_out = data.draw(st.integers(0, K_full - 1))
    rep = {}
    ref = product(f, g, K_out=K_out, D_I_out=D_I_out, report=rep)
    p = product(f, g, K_out=K_out, D_I_out=D_I_out)
    assert rep["transform_length"] == _least_5_smooth(2 * K_full + 1)
    assert (p.K, p.D_I, p.D_w) == (ref.K, ref.D_I, ref.D_w)
    assert check_reality(p) == 0.0
    for key in set(p.keys) | set(ref.keys):
        assert np.all(np.abs(block(p, *key) - block(ref, *key)) <= rep["roundoff_floor"])


@st.composite
def bracket_operands(draw):
    """Two real operands (n = 1, 2, 3) over the action monomials |m| <= 2,
    the bandwidth K_out to keep (below and above b_f + b_g) and an action
    degree D_I_out that may drop pairs (the full bracket has degree 3)."""
    n = draw(st.integers(1, 3))
    n_w = draw(st.integers(0, 1))
    ws = [(0,) * n_w, (1,) * n_w][:n_w + 1]
    monomials = [(m, w) for m in itertools.product(range(3), repeat=n) if sum(m) <= 2
                 for w in ws]
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(2):
        K = draw(st.integers(0, {1: 6, 2: 4, 3: 2}[n]))
        keys = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
        decay = draw(st.floats(0.0, 1.0))
        kk = np.abs(np.indices((2 * K + 1,) * n) - K).sum(axis=0)
        blocks = {}
        for key in keys:
            c = r.normal(size=kk.shape) + 1j * r.normal(size=kk.shape)
            blocks[key] = 0.5 * (c + np.conj(c[(slice(None, None, -1),) * n])) * np.exp(-decay * kk)
        ops.append(FTSeries.from_blocks(FTSeries.zeros(n, K, D_I=2, D_w=n_w, n_w=n_w), blocks))
    f, g = ops
    return f, g, draw(st.integers(0, f.K + g.K + 2)), draw(st.integers(0, 3))


@given(bracket_operands())
@settings(max_examples=60, deadline=None)
@example((rand_series(2, 3, 31, D_I=1), rand_series(2, 2, 32, D_I=1), 2, 0))  # K_out < b_f + b_g
@example((rand_series(2, 3, 33, D_I=1), rand_series(2, 2, 34, D_I=1), 7, 1))  # K_out > b_f + b_g
def test_property_bracket_equals_two_n_products(case):
    # the fused bracket against sum_i dtheta_i f * dI_i g - dI_i f * dtheta_i g
    # built from full-length products, entry by entry within the fused
    # bracket's summed floor plus the reference products' floors
    f, g, K_out, D_I_out = case
    n = f.n
    ref = FTSeries.zeros(n, K_out, D_I=D_I_out, D_w=f.D_w, n_w=f.n_w)
    ref_floor, l1 = 0.0, 0.0
    for i in range(n):
        for sign, a, b in ((1.0, f.dtheta(i), g.dI(i)), (-1.0, f.dI(i), g.dtheta(i))):
            rep = {}
            ref = ref + sign * product(a, b, K_out=K_out, D_I_out=D_I_out, report=rep)
            ref_floor += rep["roundoff_floor"]
            l1 += a.coeff_norm1() * b.coeff_norm1()
    b_f, b_g = occupied_band(f), occupied_band(g)
    K_full = b_f + b_g
    Lf = _least_5_smooth(max(K_full + min(K_out, K_full), 2 * max(b_f, b_g)) + 1)
    floor = np.finfo(float).eps * n * math.log2(Lf) * l1
    pb = poisson_bracket(f, g, K_out=K_out, D_I_out=D_I_out)
    assert (pb.K, pb.D_I, pb.D_w) == (K_out, D_I_out, f.D_w)
    assert check_reality(pb) == 0.0
    for key in set(pb.keys) | set(ref.keys):
        got = block(pb, *key)
        assert np.all(np.abs(got - block(ref, *key)) <= floor + ref_floor)
        assert np.all(np.abs(got[got != 0]) >= floor * (1.0 - 1e-12))


@pytest.mark.parametrize("n", [1, 2, 3])
@given(b=st.integers(0, 4), extra=st.integers(1, 4), N=st.integers(1, 12),
       alpha=st.tuples(*[st.integers(0, 3)] * 3).filter(lambda a: sum(a) <= 3),
       seed=st.integers(0, 2**32 - 1))
@example(b=4, extra=2, N=4, alpha=(2, 1, 0), seed=0)    # N < 2b + 1: modes fold
@example(b=3, extra=1, N=7, alpha=(0, 0, 3), seed=1)    # N = 2b + 1
@settings(max_examples=30, deadline=None)
def test_property_derivative_grid_equals_fourier_sum(n, b, extra, N, alpha, seed):
    # d^alpha f on the N^n grid against sum_k c_k (2 pi i k)^alpha e^{2 pi i k.j/N},
    # f of occupied band b stored at K = b + extra, for odd and even N
    alpha = alpha[:n]
    r = np.random.default_rng(seed)
    ks = np.indices((2 * b + 1,) * n).reshape(n, -1).T - b
    blocks = {}
    for i in range(2):
        c = r.normal(size=len(ks)) + 1j * r.normal(size=len(ks))
        blocks[((i,) + (0,) * (n - 1), ())] = 0.5 * (c + np.conj(c[::-1])).reshape((2 * b + 1,) * n)
    f = FTSeries.from_blocks(FTSeries.zeros(n, b, D_I=1), blocks).rebanded(b + extra)
    got = f.derivative_grid(alpha, N)
    assert got.dtype == np.float64 and got.shape == (2,) + (N,) * n
    j = np.indices((N,) * n).reshape(n, -1).T
    waves = np.exp(2j * np.pi * ((j @ ks.T) % N) / N)
    mult = np.prod((2j * np.pi * ks) ** np.array(alpha), axis=1)
    for row, c in enumerate(blocks.values()):
        d = c.reshape(-1) * mult
        direct = waves @ d
        assert np.max(np.abs(got[row].reshape(-1) - direct)) <= 1e-12 * np.sum(np.abs(d))


@st.composite
def sampled_series(draw):
    """Random real blocks (n = 1, 2, 3) of bandwidth K, the bandwidth K_out
    to keep, and the samples by a direct Fourier sum on N points per axis,
    N >= 2 max(K, K_out) + 1 so that no kept mode aliases."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(0, {1: 8, 2: 4, 3: 2}[n]))
    K_out = draw(st.integers(0, K + 1))
    N = draw(st.integers(2 * max(K, K_out) + 1, 2 * max(K, K_out) + 6))
    decay = draw(st.floats(0.0, 8.0))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = np.indices((2 * K + 1,) * n).reshape(n, -1).T - K
    pts = np.indices((N,) * n).reshape(n, -1).T / N
    phases = np.exp(2j * np.pi * (pts @ ks.T))
    blocks, samples = {}, {}
    for i in range(draw(st.integers(1, 3))):
        c = r.normal(size=len(ks)) + 1j * r.normal(size=len(ks))
        c = 0.5 * (c + np.conj(c[::-1])) * np.exp(-decay * np.abs(ks).sum(axis=1))
        key = ((i,) + (0,) * (n - 1), ())
        blocks[key] = c.reshape((2 * K + 1,) * n)
        samples[key] = phases @ c
    return n, K, K_out, N, blocks, samples


def _nyquist_case():
    """n = 1, K = 2 on N = 4 points, K_out = 1: the dropped modes +-2 are
    real and meet in the N/2 column, which the full spectrum's l1 counts once."""
    c = np.array([0.3, -0.2 + 0.1j, 0.5, -0.2 - 0.1j, 0.3])
    samples = np.exp(2j * np.pi * np.outer(np.arange(4) / 4, np.arange(-2, 3))) @ c
    return 1, 2, 1, 4, {((0,), ()): c}, {((0,), ()): samples}


@given(sampled_series())
@settings(max_examples=60, deadline=None)
@example(_nyquist_case())
def test_property_from_samples_equals_fourier_coefficients(case):
    n, K, K_out, N, blocks, samples = case
    rep = {}
    like = FTSeries.zeros(n, K_out, D_I=2)
    p = FTSeries.from_samples(like, list(samples), np.real(list(samples.values())), N,
                              report=rep)
    floors = {key: np.finfo(float).eps * n * math.log2(N) * np.sum(np.abs(c))
              for key, c in blocks.items()}
    assert rep["roundoff_floor"] == pytest.approx(max(floors.values()), rel=1e-9)
    assert check_reality(p) == 0.0 and set(p.keys) <= set(blocks)
    for key, c in blocks.items():
        kk = min(K, K_out)
        true = np.pad(c[(slice(K - kk, K + kk + 1),) * n], K_out - kk)
        got = block(p, *key)
        kept = got != 0
        assert np.all(np.abs(got[kept] - true[kept]) <= floors[key])
        assert np.all(np.abs(true[~kept]) <= 2.0 * floors[key])
    assert 0.0 <= rep["pruned_mass"] <= rep["roundoff_floor"] * (2 * K_out + 1) ** n * len(blocks)
    # the truncation drops exactly the true modes |k|_inf > K_out
    ks = np.indices((2 * K + 1,) * n).reshape(n, -1).T - K
    beyond = np.max(np.abs(ks), axis=1, initial=0) > K_out
    dropped = sum(float(np.sum(np.abs(c.reshape(-1)[beyond]))) for c in blocks.values())
    assert rep["aliasing_mass"] == pytest.approx(dropped, rel=1e-12,
                                                 abs=N ** n * sum(floors.values()))


def test_product_lemma_constants_per_family():
    # the Banach-algebra constant scan backing certificate submultiplicativity
    for fam in [W.gevrey(1), W.gevrey(2), W.gevrey_log(1, 1), W.exp_log(), W.exp_sqrt()]:
        ws = W.build_sequence(fam, 320)
        assert W.product_lemma_scan(ws) <= W.C_NORM + 1e-9
        assert W.composition_lemma_scan(ws) <= W.C_NORM + 1e-9


def test_derivative_cauchy_estimate_slack():
    # cert(df, s(1-sigma)) <= s^-1 C(sigma) cert(f, s) * slack with slack <= 2
    sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 4096))
    rng = np.random.default_rng(9)
    s, sigma = 0.3, 0.25
    worst_slack = 0.0
    for trial in range(5):
        f = rand_series(2, 4, 200 + trial)
        cf = norm_upper(f, sp, s).bound
        for i in range(2):
            cd = norm_upper(f.dtheta(i), sp, s * (1.0 - sigma)).bound
            slack = cd / (sp.cauchy_c(sigma).value / s * cf)
            worst_slack = max(worst_slack, slack)
    assert worst_slack <= 2.0


def test_parameter_jet_evaluation_and_substitution():
    from udham.flows import jet_param_substitute
    f = FTSeries.zeros(2, 2, D_w=1, n_w=2)
    f.set_mode((1, 0), 0.4)                       # base block
    f.set_mode((1, 0), 0.25, w=(1, 0))            # d/dw_1 block
    f.set_mode((0, 1), -0.1, w=(0, 1))
    pts = np.random.default_rng(0).uniform(size=(6, 2))
    wv = np.array([0.02, -0.03])
    direct = np.zeros(6, dtype=complex)
    for k, m, w, c in f.terms():
        direct += c * np.exp(2j * np.pi * (pts @ np.array(k))) * \
            np.prod(wv ** np.array(w))
    assert np.max(np.abs(f.eval(pts, w=wv) - direct.real)) < 1e-14
    # affine substitution w -> shift + M w agrees pointwise
    shift = np.array([0.01, 0.005])
    M = np.array([[0.9, 0.1], [0.0, 1.1]])
    g = jet_param_substitute(f, shift, M)
    w2 = shift + M @ wv
    assert np.max(np.abs(g.eval(pts, w=wv) - f.eval(pts, w=w2))) < 1e-14


def _jet_series(K, seed):
    """A real angle series with a degree-1 jet in two parameters."""
    r = np.random.default_rng(seed)
    f = FTSeries.zeros(2, K, D_w=1, n_w=2)
    for w in [(0, 0), (1, 0), (0, 1)]:
        f.add_cos(tuple(r.integers(-K, K + 1, size=2)), r.normal(), w=w)
        f.add_sin(tuple(r.integers(-K, K + 1, size=2)), r.normal(), w=w)
    return f


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None)
def test_property_jet_substitution_closed_under_composition(seed):
    # J(J(f, s1, M1), s2, M2) = J(f, s1 + M1 s2, M1 M2), J(f, s, M) = f(s + M w)
    J = F.jet_param_substitute
    r = np.random.default_rng(seed)
    f = _jet_series(3, seed)
    s1, s2 = r.normal(scale=0.1, size=(2, 2))
    M1, M2 = np.eye(2) + r.normal(scale=0.2, size=(2, 2, 2))
    lhs = J(J(f, s1, M1), s2, M2)
    rhs = J(f, s1 + M1 @ s2, M1 @ M2)
    assert (lhs - rhs).coeff_norm1() <= 1e-14 * rhs.coeff_norm1()


def _operations(seed):
    """(name, inputs, thunk) for every operation that must leave its inputs alone."""
    pv = D.periodic_from_rational((2, 3), 3)
    f, g = rand_series(2, 3, seed, D_I=1), rand_series(2, 2, seed + 1, D_I=1)
    j = _jet_series(2, seed + 2)
    E = [0.01 * rand_series(2, 2, seed + 3), 0.01 * rand_series(2, 2, seed + 4)]
    C = 0.01 * rand_series(2, 2, seed + 5)
    Dg = [0.01 * rand_series(2, 2, seed + 6), 0.01 * rand_series(2, 2, seed + 7)]
    tr = F.affine_flow_lie(C, Dg, K_out=3)
    tr_series = tr.E + tr.A
    M = np.array([[0.9, 0.1], [0.0, 1.1]])
    return [
        ("product", [f, g], lambda: product(f, g, K_out=4, report={})),
        ("poisson_bracket", [f, g], lambda: poisson_bracket(f, g)),
        ("add", [f, g], lambda: f + g),
        ("sub", [f, g], lambda: f - g),
        ("scalar_mul", [f], lambda: 2.5 * f),
        ("dtheta", [f], lambda: f.dtheta(1)),
        ("dI", [f], lambda: f.dI(0)),
        ("prune", [f], lambda: f.prune()),
        ("average_periodic", [f], lambda: average_periodic(f, pv)),
        ("solve_homological_periodic", [f], lambda: solve_homological_periodic(f, pv)),
        ("compose_angle", [f, g] + E, lambda: F.compose_angle([f, g], E, report={})),
        ("apply_affine", [f, g] + tr_series, lambda: F.apply_affine([f, g], tr, report={})),
        ("compose_affine", tr_series, lambda: F.compose_affine(tr, tr)),
        ("jet_param_substitute", [j], lambda: F.jet_param_substitute(j, [0.01, 0.02], M)),
    ]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None)
def test_property_operations_leave_inputs_unchanged(seed):
    for name, inputs, op in _operations(seed):
        before = [(x.keys, x.coef.copy()) for x in inputs]
        out = op()
        outs = (out.E + out.A if isinstance(out, F.AffineTransform)
                else out if isinstance(out, list) else [out])
        for x, (keys, coef) in zip(inputs, before):
            assert x.keys == keys and np.array_equal(x.coef, coef), name
            assert not any(np.shares_memory(y.coef, x.coef) for y in outs), name


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3),
       st.data())
@settings(max_examples=10, deadline=None)
def test_property_bracket_antisymmetry_and_jacobi(seed, K, data):
    # antisymmetry holds under any truncation K_out; K_out = 4K holds every
    # double bracket of K-band inputs untruncated, as Jacobi needs
    f, g, h = (rand_series(2, K, seed + i, D_I=1) for i in range(3))
    cut = dict(K_out=data.draw(st.integers(1, 4 * K)), D_I_out=3)
    fg = poisson_bracket(f, g, **cut)
    assert (fg + poisson_bracket(g, f, **cut)).coeff_norm1() <= 1e-14 * fg.coeff_norm1()
    kw = dict(K_out=4 * K, D_I_out=3)
    terms = [poisson_bracket(poisson_bracket(a, b, **kw), c, **kw)
             for a, b, c in [(f, g, h), (g, h, f), (h, f, g)]]
    jacobi = (terms[0] + terms[1] + terms[2]).coeff_norm1()
    assert jacobi <= 1e-14 * sum(t.coeff_norm1() for t in terms)


# -- pruned transforms and coefficient-side operations, bit for bit ------------

def _full_half_spectrum(win, L, n):
    """The whole half spectrum on the L^n grid of a stack of windows (mode k
    at index k + b), placed by fancy indexing at k mod L when k_last >= 0."""
    b = (win.shape[-1] - 1) // 2
    r = np.arange(-b, b + 1) % L
    half = np.zeros((len(win),) + (L,) * (n - 1) + (L // 2 + 1,), dtype=complex)
    half[np.ix_(np.arange(len(win)), *([r] * (n - 1)), r[b:])] = win[..., b:]
    return half


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("L", [7, 8])
@pytest.mark.parametrize("norm", [None, "forward"])
def test_pruned_inverse_equals_irfftn(n, L, norm):
    rng = np.random.default_rng(10 * n + L)
    for b in (-1, 0, 1, (L - 1) // 2):
        shape = (3,) + (max(2 * b + 1, 0),) * n
        win = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        full = np.fft.irfftn(_full_half_spectrum(win, L, n), s=(L,) * n,
                             axes=tuple(range(1, n + 1)), norm=norm)
        assert np.array_equal(S._grid_values(win, L, n, norm=norm), full)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("L", [7, 8])
def test_pruned_forward_equals_rfftn(n, L):
    rng = np.random.default_rng(10 * n + L)
    vals = rng.normal(size=(3,) + (L,) * n)
    H = np.fft.rfftn(vals, axes=tuple(range(1, n + 1)), norm="forward")
    rows = np.arange(3)
    for K in (0, 1, (L - 1) // 2):
        half = S._half_spectrum(vals, n, K)
        idx = np.arange(-K, K + 1) % L
        assert np.array_equal(half, H[np.ix_(rows, *([idx] * (n - 1)), np.arange(K + 1))])
        # modes K_kept <= K as Hermitian blocks
        for K_kept in (0, K):
            ks = np.arange(-K_kept, K_kept + 1)
            want = S._mirror(H[np.ix_(rows, *([ks % L] * (n - 1)), np.abs(ks))], n)
            assert np.array_equal(S._half_modes(half, n, K_kept), want)


# -- the spectral kernel's scratch buffers ------------------------------------

def _kernel_results(f, g, alpha, N):
    """The arrays that a product, a bracket and a derivative grid return."""
    return [product(f, g).coef, poisson_bracket(f, g).coef, f.derivative_grid(alpha, N)]


@pytest.mark.parametrize("n", [1, 2, 3])
@given(K_f=st.integers(0, 3), K_g=st.integers(0, 3), N=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_property_results_share_no_scratch_memory(n, K_f, K_g, N, seed):
    f, g = rand_series(n, K_f, seed, D_I=1), rand_series(n, K_g, seed + 1, D_I=1)
    alpha = (1,) + (0,) * (n - 1)
    for out in _kernel_results(f, g, alpha, N):
        assert not any(np.shares_memory(out, buf) for buf in S._SCRATCH.values())


def test_held_results_survive_later_calls():
    f, g = rand_series(2, 3, 71, D_I=1), rand_series(2, 2, 72, D_I=1)
    held = _kernel_results(f, g, (1, 0), 8)
    copies = [h.copy() for h in held]
    for K in (8, 1):              # a larger and a smaller shape
        _kernel_results(rand_series(2, K, 73, D_I=1), rand_series(2, K, 74, D_I=1), (0, 1), 12)
    assert all(np.array_equal(h, c) for h, c in zip(held, copies))
    assert all(np.array_equal(h, c) for h, c in zip(_kernel_results(f, g, (1, 0), 8), copies))


def test_same_shape_bracket_allocates_no_buffer(monkeypatch):
    monkeypatch.setattr(S, "_SCRATCH", {})
    f, g = rand_series(2, 4, 75, D_I=1), rand_series(2, 4, 76, D_I=1)
    poisson_bracket(f, g)
    buffers = dict(S._SCRATCH)
    assert buffers
    poisson_bracket(rand_series(2, 4, 77, D_I=1), rand_series(2, 4, 78, D_I=1))
    assert S._SCRATCH.keys() == buffers.keys()
    assert all(S._SCRATCH[use] is buf for use, buf in buffers.items())


def _full_transform_product(f, g, K_out, with_report):
    """`product` of two one-monomial series by whole-spectrum `irfftn` and
    `rfftn`, fancy-index placement and `np.pad`; also its length."""
    n, axes = f.n, tuple(range(1, f.n + 1))
    b_f, b_g = f._band(), g._band()
    K_full = b_f + b_g
    K_kept = min(K_out, K_full)
    L = S._smooth_length(max(K_full + (K_full if with_report else K_kept),
                             2 * max(b_f, b_g)) + 1)
    wins = [f.coef, g.coef]          # each stored at its occupied band
    F, G = (np.fft.irfftn(_full_half_spectrum(w, L, n), s=(L,) * n, axes=axes,
                          norm="forward") for w in wins)
    H = np.fft.rfftn(F * G, axes=axes, norm="forward")
    ks = np.arange(-K_kept, K_kept + 1)
    kept = np.pad(S._mirror(H[np.ix_([0], *([ks % L] * (n - 1)), np.abs(ks))], n),
                  [(0, 0)] + [(K_out - K_kept,) * 2] * n)
    l1 = np.prod([np.sum(np.abs(w), axis=axes)[0] for w in wins])
    kept[np.abs(kept) < float(np.finfo(float).eps * n * math.log2(L)) * l1] = 0.0
    return kept[0], L


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("with_report", [False, True])
def test_product_equals_full_transform_oracle(n, with_report):
    f, g = rand_series(n, 3, 50 + n).rebanded(5), rand_series(n, 1, 60 + n)
    for K_out in (1, 2, 6):       # K_kept below b_f, between the bands, above b_f + b_g
        rep = {} if with_report else None
        got = product(f, g, K_out=K_out, report=rep)
        want, L = _full_transform_product(f, g, K_out, with_report)
        assert got.keys == f.keys and np.array_equal(got.blocks[f.keys[0]], want)
        if with_report:
            assert rep["transform_length"] == L


def test_axpy_permuted_keys_unequal_K_equals_dense_oracle():
    rng = np.random.default_rng(7)

    def series(K, ms):
        shape = (2 * K + 1,) * 2
        blocks = {(m, ()): rng.normal(size=shape) + 1j * rng.normal(size=shape) for m in ms}
        return FTSeries.from_blocks(FTSeries.zeros(2, K, D_I=2), blocks)

    f, g = series(2, [(0, 0), (1, 0), (0, 1)]), series(4, [(0, 1), (2, 0), (0, 0)])
    for x, y, a, got in ((f, g, 1.0, f + g), (f, g, -1.0, f - g), (g, f, -1.0, g - f)):
        want = {key: np.zeros((9, 9), dtype=complex) for key in x.keys + y.keys}
        for src, fac in ((x, 1.0), (y, a)):
            lo, hi = 4 - src.K, 5 + src.K
            for key, block in src.blocks.items():
                want[key][lo:hi, lo:hi] += fac * block
        assert got.K == 4 and got.keys == tuple(want)
        assert all(np.array_equal(got.blocks[key], want[key]) for key in want)


def _norm_upper_per_term(f, sp, s):
    """(bound, n_terms, worst_term) of `norm_upper` with exp(Omega(4 s rho))
    evaluated at every nonzero entry of the (2K+1)^n blocks."""
    coef = np.stack([f.blocks[key] for key in f.keys])
    nz = np.nonzero(np.abs(coef) > 0)
    degree = np.array([sum(m) + sum(w) for m, w in f.keys], dtype=float)
    rho = S.TWO_PI * np.sum(np.abs(np.stack(nz[1:]) - f.K), axis=0) + degree[nz[0]]
    terms = W.C_NORM * np.abs(coef[nz]) * np.exp(sp.omega_values(4.0 * s * rho))
    per_block = np.split(terms, np.cumsum(np.bincount(nz[0], minlength=len(f.keys)))[:-1])
    return (sum(float(np.sum(t)) for t in per_block), len(terms),
            float(np.max(terms, initial=0.0)))


def test_norm_upper_equals_per_term_expression():
    f = rand_series(2, 6, 70, D_I=1).rebanded(8)
    f.set_mode((1, 2), 0.0)
    f.set_mode((-1, -2), 0.0)
    for s in (0.05, 0.2, 1.0):
        cert = norm_upper(f, SP, s)
        assert (cert.bound, cert.n_terms, cert.worst_term) == _norm_upper_per_term(f, SP, s)
    # beyond the horizon both name the first offending entry in storage order
    short = W.ScaleProfile(W.build_sequence(W.gevrey(2), 16))
    with pytest.raises(W.HorizonError) as want:
        _norm_upper_per_term(f, short, 10.0)
    with pytest.raises(W.HorizonError) as got:
        norm_upper(f, short, 10.0)
    assert str(got.value) == str(want.value) and got.value.partial == want.value.partial


@pytest.mark.parametrize("num, den", [((2, 3), 3), ((1, 0, 2), 2)])
def test_homological_solve_equals_modewise_formula(num, den):
    # Tv with two nonzero entries and T != 1: Y_k = f_k / (2 pi i k.Tv / T)
    pv = D.periodic_from_rational(num, den)
    f = rand_series(len(num), 3, 80 + len(num), D_I=1)
    want = np.zeros_like(f.coef)
    for idx in np.ndindex(f.coef.shape[1:]):
        kTv = sum((i - f._band()) * t for i, t in zip(idx, pv.Tv))
        if kTv:
            at = (slice(None),) + idx
            want[at] = f.coef[at] / ((S.TWO_PI * 1j) * np.array([kTv / pv.T]))
    Y = solve_homological_periodic(f, pv)
    assert Y.keys == f.keys and np.array_equal(Y.coef, want)
