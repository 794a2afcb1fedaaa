import math

import numpy as np
import pytest

from udham import dioph as D
from udham import flows as F
from udham import instability as INS
from udham import weights as W

SP = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 14))


class TestLinearDiffusion:
    def setup_method(self):
        self.fp = D.golden_profile()

    def test_spec_convergent_example(self):
        ex = INS.build_linear_diffusion(self.fp, 3, s=1.0, sp=SP, n=3)
        assert tuple(ex.k) == (5.0, -3.0, 0.0)
        assert ex.eps_j == pytest.approx(abs(D.GOLDEN - 5.0 / 3.0), rel=1e-12)

    def test_exact_orthogonality(self):
        from fractions import Fraction
        for j in range(2, 9):
            ex = INS.build_linear_diffusion(self.fp, j, s=1.0, sp=SP, n=3)
            # exact in the rational arithmetic of the construction
            dot = Fraction(ex.p) * 1 + Fraction(-ex.q) * Fraction(ex.p, ex.q)
            assert dot == 0
            assert abs(float(ex.k @ ex.v)) < 1e-12 * ex.k_norm

    def test_sandwich_j3_to_8(self):
        for j in range(3, 9):
            ex = INS.build_linear_diffusion(self.fp, j, s=1.0, sp=SP, n=3)
            sw = INS.diffusion_sandwich(ex, self.fp, SP)
            assert sw["ok"], f"j={j}: {sw}"

    def test_zero_time_zero_drift(self):
        ex = INS.build_linear_diffusion(self.fp, 4, s=1.0, sp=SP, n=3)
        _, I = ex.closed_form(np.zeros(3), np.zeros(3), [0.0])
        assert np.all(I == 0.0)

    def test_drift_exactly_linear(self):
        ex = INS.build_linear_diffusion(self.fp, 5, s=1.0, sp=SP, n=3)
        t1, t2 = 37.0, 555.0
        d1 = float(np.sum(np.abs(ex.closed_form(np.zeros(3), np.zeros(3), [t1])[1])))
        d2 = float(np.sum(np.abs(ex.closed_form(np.zeros(3), np.zeros(3), [t2])[1])))
        assert d2 / d1 == pytest.approx(t2 / t1, rel=1e-12)
        assert d1 == pytest.approx(t1 * ex.drift_rate(), rel=1e-12)

    def test_integrator_matches_closed_form(self):
        ex = INS.build_linear_diffusion(self.fp, 8, s=1.0, sp=SP, n=3)
        res = INS.run_linear_diffusion(ex, np.zeros(3), np.zeros(3),
                                       np.linspace(0.0, 1000.0, 11), dt=0.5)
        assert res["integrator_error"] <= 1e-8

    def test_phase_condition_enforced(self):
        ex = INS.build_linear_diffusion(self.fp, 4, s=1.0, sp=SP, n=3)
        with pytest.raises(W.ParameterError):
            INS.run_linear_diffusion(ex, np.full(3, 0.123), np.zeros(3),
                                     [0.0, 1.0])


class TestShearAndCoupling:
    def test_shear_drift_identity(self):
        for q in [3, 10, 25, 50, 100]:
            psi = INS.shear_map_factory(q)
            x = (0.0, 0.0)
            for k in range(1, q + 1):
                x = psi(*x)
                assert abs(x[1] - k / q) < 1e-12
                assert abs(x[0] % 1.0) < 1e-12

    def test_exact_mode_full_drift(self):
        for q in [12, 50, 100]:
            cm = INS.coupled_map(q)
            out = INS.run_coupled_drift(cm)
            assert out["drift_error"] <= 1e-9
            assert out["a_return_error"] == 0.0
            assert out["final"][1] == pytest.approx(1.0, abs=1e-9)

    def test_exact_mode_blocks_return_a(self):
        q = 9
        cm = INS.coupled_map(q)
        x = (0.0, 0.0)
        y = [0]
        for k in range(1, q * q + 1):
            x, y = cm.step(x, y)
            if k % q == 0:
                assert y[0] == 0
                assert x[1] == pytest.approx(k / q ** 2, abs=1e-12)

    def test_eta_lattice_identities(self):
        for p in range(2, 32):
            rep = INS.eta_lattice_identity(p)
            assert rep["eta_at_0"] == pytest.approx(1.0, abs=1e-12)
            assert abs(rep["deta_at_0"]) < 1e-12
            assert rep["max_eta_lattice"] < 1e-12
            assert rep["max_deta_lattice"] < 1e-12

    def test_eta_series_norm_bound(self):
        # |eta_p|_s <= c^2 exp(2 Omega(8 pi p s)) via the stored series
        from udham.series import norm_upper
        s = 0.02
        for p in [2, 5, 11]:
            ser = INS.eta_p_series(p)
            cert = norm_upper(ser, SP, s).bound
            bound = W.C_NORM ** 2 * math.exp(2.0 * SP.omega_value(8.0 * math.pi * p * s))
            assert cert <= bound * (1.0 + 1e-12)

    def test_pendulum_mode_small_B(self):
        # n = 2 degenerate variant: g = bump only, q = B
        B = 3
        orbit = F.pendulum_periodic_point(B)
        bump_v, bump_d = INS.smooth_bump()

        def g2(th):
            x = ((th + 0.5) % 1.0) - 0.5
            return bump_v(x)

        def dg2(th):
            x = ((th + 0.5) % 1.0) - 0.5
            return bump_d(x)

        pend = F.pendulum_time1_map(1.0, rtol=1e-14)
        fac = INS.CoupledFactor(step=lambda th, I: pend(th, I),
                                point=(0.0, orbit.I_B), g=g2, dg=dg2)
        cm = INS.CoupledMap(q=B, factors=[fac], g_funcs=[g2], dg_funcs=[dg2],
                            mode="pendulum")
        out = INS.run_coupled_drift(cm, [fac.point])
        assert out["final"][1] == pytest.approx(1.0, abs=1e-6)
        assert out["a_return_error"] < 1e-6


def sync_oracle(msc, tol=1e-9, band=1000):
    """synchronization_check with tau inverted at every step k within band
    steps of 0 mod q on either side, window or not."""
    g0 = msc.g_value([p[0] for p in msc.a_point])
    dg0 = msc.dg_norm([p[0] for p in msc.a_point])
    q, A = msc.q, msc.A
    rotators = [msc.primes[msc.j - (msc.n - i)] for i in range(3, msc.n + 1)]
    worst_val = worst_dg = 0.0
    for k in sorted(set(range(1, min(q, band + 1))) | set(range(max(1, q - band), q))):
        r = k - q if 2 * k > q else k
        thetas = [math.copysign(msc.orbit.theta_of_t(abs(r) / A), r)]
        thetas += [(k % p) / p for p in rotators]
        worst_val = max(worst_val, abs(msc.g_value(thetas)))
        worst_dg = max(worst_dg, msc.dg_norm(thetas))
    return {"g_at_a": g0, "dg_at_a": dg0, "max_g_on_orbit": worst_val,
            "max_dg_on_orbit": worst_dg,
            "passed": (abs(g0 - 1.0) < tol and dg0 < tol
                       and worst_val < tol and worst_dg < tol)}


class TestMSConstruction:
    def test_prime_schedule_arithmetic(self):
        msc = INS.build_ms(3, 2, s=0.05, sp=SP)
        assert msc.A_prime == 5      # p_2 = 5 at n = 3
        assert msc.A == 25           # p_j * A'
        assert msc.q == msc.A * msc.B

    def test_certificate_budget(self):
        for (n, j) in [(2, 0), (3, 2), (4, 3)]:
            msc = INS.build_ms(n, j, s=0.05, sp=SP)
            assert msc.cert_g <= msc.cert_budget
            assert msc.cert_g / msc.q <= 1.0 / msc.A ** 2

    def test_synchronization(self):
        msc = INS.build_ms(3, 2, s=0.05, sp=SP)
        rep = INS.synchronization_check(msc)
        assert rep["passed"]
        assert rep["g_at_a"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("nj", [(2, 0), (3, 2)])
    def test_synchronization_equals_per_step_inversion(self, nj):
        # q is 2.0e11 and 8.5e17 here, so the oracle's band of 1000 steps
        # on each side of 0 mod q stands in for every k; the window holds
        # |r| < A t_win <= 12.5 of them
        msc = INS.build_ms(*nj, s=0.05, sp=SP)
        assert msc.A * msc.orbit.tau(F.VARTHETA) < 1000 < msc.q // 2
        assert INS.synchronization_check(msc) == sync_oracle(msc)

    def test_synchronization_inverts_tau_exactly_inside_window(self):
        for nj, count in [((3, 2), 24), ((4, 3), 244)]:
            msc = INS.build_ms(*nj, s=0.05, sp=SP)
            A, t_win = msc.A, msc.orbit.tau(F.VARTHETA)
            times = []
            inverse = msc.orbit.theta_of_t
            msc.orbit.theta_of_t = lambda t: times.append(t) or inverse(t)
            INS.synchronization_check(msc)
            # the in-window residues 0 < r < A t_win, for k = r and then for
            # k = q - r, r descending
            inside = [r for r in range(1, int(A * t_win) + 2) if r / A < t_win]
            assert times == [r / A for r in inside + inside[::-1]], nj
            assert len(times) == count, nj

    def test_synchronization_exact_past_double_precision(self):
        # q = 1.04e25 > 2^53: float phases k/A lose their fractional part
        msc = INS.build_ms(4, 3, s=0.05, sp=SP)
        assert msc.q > 2 ** 53
        rep = INS.synchronization_check(msc)
        assert rep["passed"]
        assert rep["max_g_on_orbit"] < 1e-30

    def test_exponent_mode_flag(self):
        a = INS.build_ms(3, 2, s=0.05, sp=SP, exponent_mode="proof")
        b = INS.build_ms(3, 2, s=0.05, sp=SP, exponent_mode="statement")
        assert a.log["B_formula"] >= b.log["B_formula"]

    def test_timing_bracket_shape(self):
        # ln tau_j = 2 ln q_j between 2 Omega(c eps^-1/(2(n-2))) envelopes
        # for fitted constants: a shape check on the j-sweep
        sp = SP
        taus, epss = [], []
        for j in [2, 3, 4]:
            msc = INS.build_ms(3, j, s=0.05, sp=sp)
            taus.append(2.0 * math.log(msc.q))
            epss.append(1.0 / msc.A ** 2)
        n = 3

        def env(c, eps):
            return 2.0 * sp.omega_value(c * eps ** (-1.0 / (2 * (n - 2))))

        # fit c1 < c2 bracketing all three points
        c_lo, c_hi = 1e-3, 1e3
        ok_lo = all(env(c_lo, e) <= t for e, t in zip(epss, taus))
        ok_hi = all(env(c_hi, e) >= t for e, t in zip(epss, taus))
        assert ok_lo and ok_hi


class TestBessi:
    def setup_method(self):
        self.sp4 = W.ScaleProfile(W.build_sequence(W.gevrey(4), 1 << 20))
        conv, x = D.liouville_convergents(
            self.sp4, s0=1.0, n_steps=8,
            growth=INS.liouville_growth_for_bessi(self.sp4, 1.0))
        self.fp = D.profile_from_prescribed(conv, omega_value=x)

    def test_candidates_by_construction(self):
        ex = INS.build_bessi(self.fp, self.sp4, s0=1.0, s=0.5, eps=0.1, mu=0.5)
        assert ex.candidates_found
        assert len(ex.ks) >= 2

    def test_certificate_bound(self):
        ex = INS.build_bessi(self.fp, self.sp4, s0=1.0, s=0.5, eps=0.1, mu=0.5)
        for c in ex.certs:
            assert c <= 4.0 * W.C_NORM * ex.eps

    def test_orthogonality_and_nonresonance(self):
        ex = INS.build_bessi(self.fp, self.sp4, s0=1.0, s=0.5, eps=0.1, mu=0.5)
        for k, kt in zip(ex.ks, ex.k_orth):
            assert int(k @ kt) == 0
            assert max(abs(x) for x in kt) <= max(abs(x) for x in k)
        assert ex.c_orth > 0.1

    def test_growth_diagnostic_increasing(self):
        ex = INS.build_bessi(self.fp, self.sp4, s0=1.0, s=0.5, eps=0.1, mu=0.5)
        assert np.all(np.diff(ex.growth) > 0)

    def test_mu_zero_collapse(self):
        ex = INS.build_bessi(self.fp, self.sp4, s0=1.0, s=0.5, eps=0.1, mu=0.0)
        ser = INS.bessi_series(ex, 0)
        modes = {k for k, m, w, c in ser.terms()}
        k0 = tuple(int(x) for x in ex.ks[0])
        mk0 = tuple(-x for x in k0)
        assert modes == {(0, 0), k0, mk0}

    def test_series_certificate_consistent(self):
        # the closed-form certificate dominates the generic series one at
        # the 2-pi torus frequency scale
        ex = INS.build_bessi(self.fp, self.sp4, s0=1.0, s=0.5, eps=0.1, mu=0.5)
        ser = INS.bessi_series(ex, 0)
        amp = sum(abs(c) for k, m, w, c in ser.terms())
        assert amp <= 4.0 * ex.eps * ex.nus[0] * (1 + 1e-12)


class TestBump:
    def test_support_and_normalization(self):
        v, d = INS.smooth_bump()
        assert v(0.0) == pytest.approx(1.0)
        assert d(0.0) == 0.0
        assert v(F.VARTHETA) == 0.0
        assert v(0.49) == 0.0 and d(0.49) == 0.0

    def test_certificate_finite_horizon(self):
        c1 = INS.bump_norm_certificate(SP, 0.05)
        assert math.isfinite(c1) and c1 > 0


class TestMultiFactorPendulumMode:
    def test_two_factor_synchronized_drift(self):
        # pendulum factor (B = 4) x rotator factor (p = 3): the generator
        # fires only when both factors return, i.e. every lcm(4, 3) = 12
        # steps, so q_eff = 12 and I_1 drifts to 1 in q_eff^2 steps
        import math
        B, p = 4, 3
        orbit = F.pendulum_periodic_point(B)
        bv, bd = INS.smooth_bump()

        def g2(th):
            x = ((th + 0.5) % 1.0) - 0.5
            return bv(x)

        def dg2(th):
            x = ((th + 0.5) % 1.0) - 0.5
            return bd(x)

        ev, ed = INS.eta_p(p)
        pend = F.pendulum_time1_map(1.0, rtol=1e-14)
        f1 = INS.CoupledFactor(step=lambda th, I: pend(th, I),
                               point=(0.0, orbit.I_B), g=g2, dg=dg2)
        f2 = INS.CoupledFactor(step=lambda th, I: ((th + I) % 1.0, I),
                               point=(0.0, 1.0 / p), g=ev, dg=ed)
        q_eff = B * p
        cm = INS.CoupledMap(q=q_eff, factors=[f1, f2],
                            g_funcs=[f1.g, f2.g], dg_funcs=[f1.dg, f2.dg],
                            mode="pendulum")
        # one q-block only: the saddle passages amplify integrator error by
        # ~e^{2 pi} per winding, so long pendulum-mode runs derail (that is
        # exactly why the exact mode exists); 3 windings stay accurate
        out = INS.run_coupled_drift(cm, [f1.point, f2.point], n_steps=q_eff)
        assert out["final"][1] == pytest.approx(1.0 / q_eff, abs=1e-6)
        assert out["a_return_error"] < 1e-3
