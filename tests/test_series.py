import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udham import dioph as D
from udham import flows as F
from udham import weights as W
from udham.series import (ConsistencyError, FTSeries, average_periodic,
                          average_zero_mode, decay_check,
                          homological_integral_oracle, norm_upper,
                          poisson_bracket, product,
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
        p = product(f, f, K_out=2).prune(1e-15)
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
        assert rep3 == {"discarded_fourier": 0.0, "discarded_action": 0.0}

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

    def test_resonant_amplitude_error(self):
        pv = D.periodic_from_rational((1, 0), 1)
        f = FTSeries.zeros(2, 3).add_cos((0, 1))
        with pytest.raises(ConsistencyError):
            solve_homological_periodic(f, pv, remove_average=False)


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
            a = FTSeries.from_blocks(f, {((0, 0), ()): np.where(mask, f.block(), 0.0)})
            b = FTSeries.from_blocks(f, {((0, 0), ()): np.where(mask, 0.0, f.block())})
            ca = norm_upper(a, SP, 0.1).bound
            cb = norm_upper(b, SP, 0.1).bound
            cf = norm_upper(f, SP, 0.1).bound
            assert cf <= ca + cb + 1e-9

    def test_constant_term_floor(self):
        f = FTSeries.zeros(2, 2).add_cos((1, 1), 0.2)
        f.set_mode((0, 0), 0.3)
        assert norm_upper(f, SP, 0.3).bound >= W.C_NORM * 0.3


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
        vals = f.grid_values(32)[((0, 0), ())]
        coef = np.fft.fftn(vals) / 32**2
        idx = np.arange(-6, 7) % 32
        assert np.max(np.abs(coef[np.ix_(idx, idx)] - f.block())) < 1e-12

    def test_reality_invariant(self):
        f = rand_series(2, 4, 42)
        assert f.check_reality() < 1e-14
        p = product(f, f, K_out=8)
        assert p.check_reality() < 1e-14
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


def test_product_lemma_constants_per_family():
    # the Banach-algebra constant scan backing certificate submultiplicativity
    for fam in [W.gevrey(1), W.gevrey(2), W.gevrey_log(1, 1), W.exp_log(), W.exp_sqrt()]:
        ws = W.build_sequence(fam, 320)
        assert W.product_lemma_scan(ws, 300) <= W.C_NORM + 1e-9
        assert W.composition_lemma_scan(ws, 300) <= W.C_NORM + 1e-9


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
        ("prune", [f], lambda: f.prune(0.0)),
        ("prune_entries", [f], lambda: f.prune_entries(1.0)),
        ("average_periodic", [f], lambda: average_periodic(f, pv)),
        ("solve_homological_periodic", [f], lambda: solve_homological_periodic(f, pv)),
        ("compose_angle", [f] + E, lambda: F.compose_angle(f, E, report={})),
        ("apply_affine", [f] + tr_series, lambda: F.apply_affine(f, tr, report={})),
        ("compose_affine", tr_series, lambda: F.compose_affine(tr, tr)),
        ("jet_param_substitute", [j], lambda: F.jet_param_substitute(j, [0.01, 0.02], M)),
    ]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None)
def test_property_operations_leave_inputs_unchanged(seed):
    for name, inputs, op in _operations(seed):
        before = [(x.keys, x.coef.copy()) for x in inputs]
        out = op()
        outs = out.E + out.A if isinstance(out, F.AffineTransform) else [out]
        for x, (keys, coef) in zip(inputs, before):
            assert x.keys == keys and np.array_equal(x.coef, coef), name
            assert not any(np.shares_memory(y.coef, x.coef) for y in outs), name


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_property_bracket_antisymmetry_and_jacobi(seed, K):
    # K_out = 4K holds every double bracket of K-band inputs untruncated
    f, g, h = (rand_series(2, K, seed + i, D_I=1) for i in range(3))
    kw = dict(K_out=4 * K, D_I_out=3)
    fg = poisson_bracket(f, g, **kw)
    assert (fg + poisson_bracket(g, f, **kw)).coeff_norm1() <= 1e-14 * fg.coeff_norm1()
    terms = [poisson_bracket(poisson_bracket(a, b, **kw), c, **kw)
             for a, b, c in [(f, g, h), (g, h, f), (h, f, g)]]
    jacobi = (terms[0] + terms[1] + terms[2]).coeff_norm1()
    assert jacobi <= 1e-14 * sum(t.coeff_norm1() for t in terms)
