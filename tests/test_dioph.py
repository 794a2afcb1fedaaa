import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import psi_brute
from udham import dioph as D
from udham import weights as W

PHI = D.GOLDEN


class TestPsiBrute:
    def test_golden_q5(self):
        val, k = psi_brute([1.0, PHI], 5)
        assert val == pytest.approx(1.0 / abs(-3.0 + 2.0 * PHI), rel=1e-12)
        assert k == (-3, 2)

    def test_exact_resonance(self):
        for Q in [3, 5, 10]:
            with pytest.raises(D.ResonanceError) as exc:
                psi_brute([1.0, 0.5], Q)
            k = np.asarray(exc.value.k)
            assert abs(k @ np.array([1.0, 0.5])) == 0.0

    def test_resonance_message_holds_plain_ints(self):
        # numpy 2 writes a numpy integer as np.int64(-3), not as -3
        with pytest.raises(D.ResonanceError) as exc:
            D.profile_from_brute([1.0, 0.5], 10)
        assert all(type(x) is int for x in exc.value.k)
        assert str(exc.value) == f"exact resonance at k={exc.value.k}"
        assert "np." not in str(exc.value)

    def test_budget_guard(self):
        with pytest.raises(D.BudgetError):
            psi_brute([1.0, PHI, 0.1, 0.2], 900)

    def test_nondecreasing_in_q(self):
        vals, _ = D.psi_brute_table(np.array([1.0, math.sqrt(2.0)]), 60)
        assert np.all(np.diff(vals) >= 0)


def psi_linf_table(w: float, Q_max: int):
    """Psi(Q) and its lexicographically smallest k over 0 < |k|_inf <= Q,
    Q = 1..Q_max, for omega = (1, w), with |k.omega| exact on the double."""
    x = Fraction(w)
    best, best_k, vals, ks = None, None, [], []
    for Q in range(1, Q_max + 1):
        # the new shell |k|_inf = Q: one of each pair +-k, the smaller kept
        shell = [(a, Q) for a in range(-Q, Q + 1)] + [(Q, b) for b in range(-Q + 1, Q)]
        for k in shell:
            k = min(k, (-k[0], -k[1]))
            dot = abs(k[0] + k[1] * x)
            if best is None or dot < best or (dot == best and k < best_k):
                best, best_k = dot, k
        vals.append(float(1 / best))
        ks.append(best_k)
    return vals, ks


class TestProfiles:
    @pytest.mark.parametrize("name,norm", [
        pytest.param(name, norm, id=name if norm == "l1" else f"{name}-{norm}")
        for norm in ("l1", "linf") for name in ("golden", "sqrt2", "e-2", "golden_profile")])
    def test_cf_oracle_matches_brute_force(self, name, norm):
        if name == "golden_profile":
            # the lazily extended Fibonacci staircase, fresh (no extension yet)
            fp = D.golden_profile()
            om = fp.omega
        else:
            om = np.array([1.0, D.named_value(name)])
            fp = D.profile_from_cf(om)
        if norm == "linf":
            fp = D.profile_linf(fp)
            vals, ks = psi_linf_table(float(om[1]), 200)
        else:
            vals, ks = D.psi_brute_table(om, 200)
        for Q in range(1, 201):
            v, k = fp.psi(Q)
            assert v == pytest.approx(vals[Q - 1], rel=1e-12)
            assert k == ks[Q - 1]

    def test_brute_profile_returns_the_values_it_was_built_from(self):
        om = np.array([1.0, 0.7548776662466927, 0.5698402909980532])
        vals, ks = D.psi_brute_table(om, 20)
        fp = D.profile_from_brute(om, 20)
        assert [fp.psi(Q) for Q in range(1, 21)] == list(zip(vals, ks))
        assert [fp.psi_envelope(float(Q)) for Q in range(1, 21)] == list(vals)

    def test_horizon_is_next_convergent_minus_one(self):
        fp = D.golden_profile()
        assert fp.horizon == 143.0                 # next k = (-89, 55), |k|_1 = 144
        assert D.profile_linf(fp).horizon == 88.0  # |k|_inf = 89
        # 5/4 = [1; 4] ends at the exact resonance k = (-5, 4)
        cf = D.profile_from_cf(np.array([1.0, 1.25]))
        assert cf.convergents[-1] == (5, 4, 0.0)
        assert (cf.horizon, D.profile_linf(cf).horizon) == (8.0, 4.0)
        # a list that simply ends: the next convergent is at least the mediant
        cf = D.profile_from_cf(np.array([1.0, math.sqrt(2.0)]), n_convergents=6)
        (p0, q0, _), (p1, q1, _) = cf.convergents[-2:]
        assert cf.horizon == p0 + p1 + q0 + q1 - 1

    def test_convergent_accessor_extends_lazily(self):
        fp = D.golden_profile()
        assert len(fp.convergents) == 9
        p, q, e = fp.convergent(20)
        assert (p, q) == (17711, 10946)            # F_22 / F_21
        assert e == pytest.approx(PHI ** -21, rel=1e-12)
        with pytest.raises(W.ParameterError):
            D.profile_from_cf(np.array([1.0, PHI])).convergent(500)

    def test_achieving_k_consistency(self):
        fp = D.named_profile("sqrt2")
        for Q in [1, 5, 20, 100]:
            v, k = fp.psi(Q)
            assert 0 < np.sum(np.abs(k)) <= Q
            assert abs(np.dot(k, fp.omega)) == pytest.approx(1.0 / v, rel=1e-12)

    def test_envelope_sandwich(self):
        fp = D.golden_profile()
        for Q in np.linspace(1.0, 150.0, 333):
            lo, _ = fp.psi(Q)
            hi, _ = fp.psi(Q + 1.0)
            env = fp.psi_envelope(float(Q))
            assert lo - 1e-12 <= env <= hi + 1e-12

    def test_golden_fibonacci_values(self):
        # Psi at the jump |k|_1 = F_{j+3} equals phi^(j+1) exactly
        fp = D.golden_profile()
        fp.psi(1e6)  # force extension
        F = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        for j in range(6):
            v, _ = fp.psi(F[j + 2])  # jump sits at |k|_1 = p_j + q_j
            assert v == pytest.approx(PHI ** (j + 1), rel=1e-12)

    def test_lazy_extension(self):
        import mpmath
        fp = D.golden_profile()
        v, k = fp.psi(1e8)
        assert v > 1e7  # Psi(Q) >= Q for golden-type growth
        # float64 cannot resolve k.omega for Fibonacci k this large; check
        # against the true golden ratio in extended precision
        mpmath.mp.dps = 40
        phi = (1 + mpmath.sqrt(5)) / 2
        exact = abs(k[0] + k[1] * phi)
        assert float(exact) == pytest.approx(1.0 / v, rel=1e-12)


    def test_lazy_extension_by_log_psi_at(self):
        # a lookup past a fresh profile's horizon (143) reads the extended
        # list: the jump at |k|_1 = F_19 = 4181 is ln Psi = 17 ln phi
        assert D.golden_profile().log_psi_at(4181.0) == 17 * math.log(PHI)


class TestDeltaStar:
    def test_left_endpoint(self):
        fp = D.golden_profile()
        assert fp.delta_star(fp.delta(1.0)) == pytest.approx(1.0)

    def test_golden_x10(self):
        fp = D.golden_profile()
        q = fp.delta_star(10.0)
        assert fp.delta(q) <= 10.0 + 1e-9
        # next jump exceeds x: Delta at the following breakpoint is > 10
        nxt = min(b for b in fp.breaks if b > q)
        assert fp.delta(nxt) > 10.0

    def test_monotone(self):
        fp = D.golden_profile()
        xs = np.sort(np.exp(np.random.default_rng(3).uniform(0.1, 14.0, 60)))
        qs = [fp.delta_star(float(x)) for x in xs]
        assert np.all(np.diff(qs) >= -1e-12)

    def test_domain_error(self):
        fp = D.golden_profile()
        with pytest.raises(W.ParameterError):
            fp.delta_star(0.5)


class TestDirichlet:
    def test_golden_example(self):
        r = D.dirichlet_approx([1.0, PHI], 3)
        assert np.allclose(r.pv.v, [1.0, 5.0 / 3.0])
        assert r.pv.T == pytest.approx(3.0)
        assert r.err == pytest.approx(abs(PHI - 5.0 / 3.0), rel=1e-12)
        assert r.err <= 1.0 / 9.0

    def test_rational_self_approximation(self):
        r = D.dirichlet_approx([1.0, 0.25], 4)
        assert np.allclose(r.pv.v, [1.0, 0.25])
        assert r.err == 0.0

    def test_lemma_bounds_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(2, 4)
            om = np.concatenate(([1.0], rng.uniform(-1.0, 1.0, n - 1)))
            Q = float(rng.integers(2, 21))
            r = D.dirichlet_approx(om, Q)
            assert r.err <= r.err_bound + 1e-12
            assert r.T_bounds[0] - 1e-9 <= r.pv.T <= r.T_bounds[1] + 1e-9

    def test_period_minimality(self):
        pv = D.periodic_from_rational((2, 4), 6)  # reduces to (1,2)/3
        assert pv.T == 3.0 and pv.Tv == (1, 2)
        with pytest.raises(W.ParameterError):
            D.PeriodicVector(v=(2.0 / 3.0, 4.0 / 3.0), T=3.0, Tv=(2, 4))


class TestZBasis:
    def test_golden_q5(self):
        fp = D.golden_profile()
        zb = D.zbasis_approx(fp, 5)
        assert abs(zb.det) == 1
        assert [v.Tv for v in zb.vectors] == [(2, 3), (3, 5)]

    def test_rational_contains_itself(self):
        om = np.array([1.0, 0.25])
        fp = D.profile_from_cf(om)
        zb = D.zbasis_approx(fp, 3)
        assert abs(zb.det) == 1
        assert any(np.allclose(v.v, om) for v in zb.vectors)

    def test_unimodular_sweep(self):
        for name in ["golden", "sqrt2", "e-2"]:
            fp = D.named_profile(name)
            for Q in [5, 8, 13, 21, 55, 89]:
                zb = D.zbasis_approx(fp, Q)
                assert abs(zb.det) == 1
                M = np.array([v.Tv for v in zb.vectors], dtype=float)
                assert abs(round(np.linalg.det(M))) == 1

    def test_n3_brute(self):
        fp = D.profile_from_brute(np.array([1.0, PHI - 1.0, math.sqrt(2) - 1.0]), 30)
        zb = D.zbasis_approx(fp, 4)
        assert abs(zb.det) == 1

    def test_n4_unsupported(self):
        fp = D.profile_from_brute(np.array([1.0, 0.31007, 0.57013, 0.77023]), 8)
        with pytest.raises(D.UnsupportedError):
            D.zbasis_approx(fp, 4)


class TestBRTest:
    def test_golden_gevrey2_converges(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
        fp = D.golden_profile()
        rep = D.br_test(sp, fp, s=1.0, eta=0.0, n=2, i_max=24)
        assert rep.verdict == "ConvergedWithinBudget"
        assert rep.Q0 is not None and rep.Q0 >= 4
        assert rep.total_with_tail <= rep.budget + 1e-12
        assert rep.partial_sums[-1] <= math.log(2.0) / 10.0
        # direct recomputation of the width-survival product
        prod = float(np.prod((1.0 - rep.sigmas) ** (2 * 2 + 1)))
        assert prod == pytest.approx(rep.product_lower, rel=1e-9)
        assert prod >= 0.5

    def test_q0_minimality(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
        fp = D.golden_profile()
        rep = D.br_test(sp, fp, s=1.0, eta=0.0, n=2, i_max=24)
        if rep.Q0 > 4:
            sig = D._dyadic_sigmas(sp, fp, rep.Q0 - 1, 1.0, 0.0, 24, 1.0)[1]
            assert D._sum_with_tail(sig)[0] > rep.budget

    def test_expsqrt_diverges(self):
        sp = W.ScaleProfile(W.build_sequence(W.exp_sqrt(), 1 << 16))
        fp = D.golden_profile()
        rep = D.br_test(sp, fp, s=1.0, eta=0.0, n=2, i_max=40)
        assert rep.verdict == "DivergenceDiagnosed"
        # partial sums grow like log(i)
        i = np.arange(8, len(rep.partial_sums))
        A = np.vstack([np.log(i + 1.0), np.ones(len(i))]).T
        coef, res, *_ = np.linalg.lstsq(A, rep.partial_sums[8:], rcond=None)
        ss = np.sum((rep.partial_sums[8:] - rep.partial_sums[8:].mean()) ** 2)
        assert 1.0 - res[0] / ss >= 0.95

    def test_eta_raises_q0(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
        fp = D.golden_profile()
        r0 = D.br_test(sp, fp, s=1.0, eta=0.0, n=2, i_max=20)
        r1 = D.br_test(sp, fp, s=1.0, eta=3.0, n=2, i_max=20)
        assert r1.Q0 >= r0.Q0

    def test_deterministic(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 14))
        fp = D.golden_profile()
        a = D.br_test(sp, fp, s=0.5, eta=0.1, n=2, i_max=18)
        b = D.br_test(sp, D.golden_profile(), s=0.5, eta=0.1, n=2, i_max=18)
        assert a.Q0 == b.Q0
        assert np.array_equal(a.sigmas, b.sigmas)

    @pytest.mark.parametrize("family", [W.gevrey(2), W.exp_sqrt()], ids=lambda f: f.tag)
    def test_each_q0_gets_one_sigma_sequence(self, monkeypatch, family):
        # the search forms one sequence per Q0 it tries, and the report is
        # the sequence of the Q0 it returns, equal to a fresh one at that Q0
        sp = W.ScaleProfile(W.build_sequence(family, 1 << 16))
        fp = D.golden_profile()
        formed, sigmas = [], D._dyadic_sigmas

        def counted(sp_, fp_, Q0, *args):
            formed.append(Q0)
            return sigmas(sp_, fp_, Q0, *args)

        monkeypatch.setattr(D, "_dyadic_sigmas", counted)
        rep = D.br_test(sp, fp, s=1.0, eta=0.0, n=2, i_max=30)
        assert len(formed) == len(set(formed)) >= 2
        Qs, sig = sigmas(sp, D.golden_profile(), rep.Q0 or 4, 1.0, 0.0, 30, 1.0)
        assert np.array_equal(rep.sigmas, sig) and np.array_equal(rep.Q_list, Qs)


def _liouville_mpmath(sp, s0, n_steps, growth):
    """liouville_convergents with x evaluated in mpmath at 2 digits(q_n) + 40
    digits, as an extended-precision oracle for the exact rational path."""
    import mpmath
    q0, q1, terms, pq = 0, 1, [], []
    p0, p1 = 1, 0
    for _ in range(n_steps):
        try:
            target = growth(q1) if growth is not None else \
                int(math.ceil(math.exp(sp.omega_value(4.0 * q1 * s0)))) + 1
        except (W.HorizonError, OverflowError):
            break
        a = max(1, int(math.ceil((target - q0) / q1)))
        terms.append(a)
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        pq.append((p1, q1))
    with mpmath.workdps(2 * len(str(q1)) + 40):
        x = mpmath.mpf(0)
        for a in reversed(terms + [1] * 64):
            x = 1 / (a + x)
        conv = [(p, q, float(q * x - p)) for p, q in pq[:-1]]
        return conv + [pq[-1] + (None,)], float(x)


class TestLiouville:
    @pytest.mark.parametrize("bessi", [False, True], ids=["default", "bessi"])
    def test_exact_value_matches_mpmath(self, bessi):
        from udham.instability import liouville_growth_for_bessi
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(4), 1 << 20))
        growth = liouville_growth_for_bessi(sp, 1.0) if bessi else None
        got = D.liouville_convergents(sp, s0=1.0, n_steps=8, growth=growth)
        assert got == _liouville_mpmath(sp, 1.0, 8, growth)
        if bessi:   # the last denominator is near exp(700)
            assert len(str(got[0][-1][1])) >= 300

    def test_construction_forces_large_psi(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(4), 1 << 20))
        conv, x = D.liouville_convergents(sp, s0=1.0, n_steps=8)
        assert len(conv) >= 3
        for (p, q, e), (p2, q2, e2) in zip(conv[:-1], conv[1:]):
            if e is None:
                continue
            # classical sandwich (2 q_{j+1})^-1 < |q w - p| < 1/q_{j+1}
            assert 1.0 / (2.0 * q2) < abs(e) < 1.0 / q2
            target = math.exp(sp.omega_value(min(4.0 * q, 1e30)))
            assert q2 >= target - 1

    def test_probe_bounded_below_for_liouville(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(4), 1 << 20))
        conv, x = D.liouville_convergents(sp, s0=1.0, n_steps=8)
        fp = D.profile_from_prescribed(conv, omega_value=x)
        rep = D.liouville_probe(sp, fp, c_grid=[4.0],
                                Q_list=[float(b) for b in fp.breaks[1:4]])
        assert np.all(rep["ratios"][4.0] > 0.5)

    def test_probe_decays_for_golden(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(4), 1 << 20))
        fp = D.golden_profile()
        fp.psi(1e7)
        qs = [float(b) for b in fp.breaks[2:30]]
        rep = D.liouville_probe(sp, fp, c_grid=[1.0], Q_list=qs)
        r = rep["ratios"][1.0]
        assert r[-1] < 0.35 and r[-1] < r[0]

    def test_doubling_c_increases_denominator(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
        fp = D.golden_profile()
        qs = [float(b) for b in fp.breaks[2:12]]
        rep = D.liouville_probe(sp, fp, c_grid=[1.0, 2.0], Q_list=qs)
        assert np.all(rep["ratios"][2.0] <= rep["ratios"][1.0] + 1e-12)


@given(st.floats(min_value=0.05, max_value=0.95).filter(
    lambda w: min(abs(w - p / q) for q in range(1, 42) for p in range(0, q + 1)) > 1e-4))
@settings(max_examples=20, deadline=None)
def test_cf_profile_matches_brute_on_random_frequencies(w):
    om = np.array([1.0, w])
    fp = D.profile_from_cf(om)
    vals, _ = D.psi_brute_table(om, 40)
    for Q in range(1, 41):
        assert fp.psi(Q)[0] == pytest.approx(vals[Q - 1], rel=1e-10)
