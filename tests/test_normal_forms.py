import math

import numpy as np
import pytest

from udham import dioph as D
from udham import flows as FL
from udham import normal_forms as NF
from udham import weights as W
from udham.series import FTSeries, norm_upper, poisson_bracket

SP = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
GOLD = np.array([1.0, D.GOLDEN])


def toy_split(eps, K=8, with_action=True):
    pv = D.periodic_from_rational((1, 0), 1)
    H = NF.linear_integrable(pv.v, 2, K, D_I=2)
    pert = FTSeries.zeros(2, K, D_I=2).add_sin((1, 1), eps)
    if with_action:
        pert.set_mode((1, 1), eps / 2.0j, m=(1, 0))
        pert.set_mode((-1, -1), -eps / 2.0j, m=(1, 0))
    return NF.PeriodicSplit.from_hamiltonian(H + pert, pv), pv


class TestAveragingStep:
    def test_zero_remainder_identity(self):
        pv = D.periodic_from_rational((1, 0), 1)
        H = NF.linear_integrable(pv.v, 2, 8, D_I=1)
        split = NF.PeriodicSplit.from_hamiltonian(H, pv)
        new, Y, rep = NF.averaging_step(split, 0.2, SP, 0.5)
        assert Y.coeff_norm1() == 0.0
        assert new.F.coeff_norm1() == 0.0

    def test_nonresonant_mode_removed(self):
        split, pv = toy_split(1e-4, with_action=False)
        new, Y, rep = NF.averaging_step(split, 0.2, SP, 0.5)
        # {F, Y} = 0 for this angle-only toy, so the removal is exact
        assert new.F.coeff_norm1() < 1e-18

    def test_quadratic_scaling(self):
        sizes = []
        for eps in [1e-3, 5e-4]:
            split, pv = toy_split(eps, with_action=True)
            new, Y, rep = NF.averaging_step(split, 0.2, SP, 0.5)
            sizes.append(new.F.coeff_norm1())
        slope = math.log(sizes[0] / sizes[1]) / math.log(2.0)
        assert abs(slope - 2.0) < 0.1

    def test_remainder_within_second_order_bound(self):
        split, pv = toy_split(1e-4, with_action=True)
        new, Y, rep = NF.averaging_step(split, 0.2, SP, 0.5)
        assert rep["remainder_cert"] <= rep["second_order_bound"]
        assert "measured_constant" in rep

    def test_first_integral_preserved(self):
        # {I2, F} = 0 when F has no theta_2 dependence; averaging keeps it
        pv = D.periodic_from_rational((1, 0), 1)
        H = NF.linear_integrable(pv.v, 2, 8, D_I=2)
        pert = FTSeries.zeros(2, 8, D_I=2).add_sin((1, 0), 1e-4)
        pert.set_mode((1, 0), 1e-4 / 2j, m=(1, 0))
        pert.set_mode((-1, 0), -1e-4 / 2j, m=(1, 0))
        split = NF.PeriodicSplit.from_hamiltonian(H + pert, pv)
        new, Y, rep = NF.averaging_step(split, 0.2, SP, 0.5)
        I2 = FTSeries.zeros(2, 8, D_I=1)
        I2.set_mode((0, 0), 1.0, m=(0, 1))
        res = poisson_bracket(new.G + new.F, I2, K_out=8)
        assert res.coeff_norm1() < 1e-10


class TestPeriodicNF:
    def test_m1_reduces_to_single_step(self):
        split, pv = toy_split(1e-4)
        H = split.total()
        sched = NF.NFSchedule(xi=2.0, m=1, sigma1=math.log(2.0) / 24.0,
                              sigma_m=math.log(2.0) / 24.0, A=1.0,
                              nu_budgets=np.array([1.0]))
        res = NF.periodic_normal_form(H, pv, SP, 1.0, schedule=sched)
        assert len(res.schedule_log) == 1
        assert res.schedule_log[0]["sigma"] == pytest.approx(math.log(2.0) / 24.0)

    def test_toy_neishtadt_run(self):
        pv = D.periodic_from_rational((1, 0), 1)
        eta = 1e-5
        H = NF.linear_integrable(pv.v, 2, 16, D_I=1)
        H.set_mode((0, 0), eta / W.C_NORM, m=(0, 1))
        rng = np.random.default_rng(0)
        pert = FTSeries.zeros(2, 16, D_I=0)
        for k in [(1, 1), (2, -1), (0, 1), (3, 2), (1, 0)]:
            pert.add_cos(k, 2e-5 * rng.uniform(0.5, 1.0))
        H = H + pert
        res = NF.periodic_normal_form(H, pv, SP, s=1.0, xi=2.0)
        m = len(res.schedule_log)
        assert m >= 5
        # final remainder below twice the e^-m budget chain
        assert res.cert_after <= 2.0 * res.cert_before * math.exp(-m)
        within = sum(1 for e in res.schedule_log if e["within_budget"])
        assert within >= 0.9 * m
        assert res.commutation_defect() <= 1e-10
        # width floor s/xi
        assert res.schedule_log[-1]["width"] >= 1.0 / 2.0

    def test_grid_identity_of_transform(self):
        # transformed Hamiltonian equals original o flow on sample points
        split, pv = toy_split(1e-3, K=8)
        H = split.total()
        res = NF.periodic_normal_form(H, pv, SP, s=0.5, xi=2.0)
        pts_th = np.random.default_rng(3).uniform(size=(12, 2))
        pts_I = np.random.default_rng(4).uniform(-0.2, 0.2, (12, 2))
        z_th, z_I = pts_th.copy(), pts_I.copy()
        # generators applied innermost-first: flow points through each Y
        from scipy.integrate import solve_ivp
        for Y in reversed(res.generators):
            if Y.coeff_norm1() == 0.0:
                continue
            gth = Y.grad_theta()
            gI = Y.grad_I()
            for i in range(len(z_th)):
                def rhs(t, z):
                    th, I = z[:2], z[2:]
                    dth = np.array([g.eval(th[None, :], I=I)[0] for g in gI])
                    dI = -np.array([g.eval(th[None, :], I=I)[0] for g in gth])
                    return np.concatenate([dth, dI])
                sol = solve_ivp(rhs, [0.0, 1.0], np.concatenate([z_th[i], z_I[i]]),
                                rtol=1e-12, atol=1e-13)
                z_th[i], z_I[i] = sol.y[:2, -1], sol.y[2:, -1]
        lhs = np.array([res.hamiltonian.eval(pts_th[i:i + 1], I=pts_I[i])[0]
                        for i in range(len(pts_th))])
        rhs_v = np.array([H.eval(z_th[i:i + 1], I=z_I[i])[0]
                          for i in range(len(pts_th))])
        assert np.max(np.abs(lhs - rhs_v)) < 1e-8


class TestMultifrequency:
    def test_d1_equals_periodic_xi2(self):
        split, pv = toy_split(1e-4)
        H = split.total()
        a = NF.multifrequency_normal_form(H, [pv], SP, 1.0)
        b = NF.periodic_normal_form(H, pv, SP, 1.0, xi=2.0)
        assert a.cert_after == pytest.approx(b.cert_after, rel=1e-9)

    def test_full_basis_resonant_is_zero_mode(self):
        fp = D.golden_profile()
        zb = D.zbasis_approx(fp, 5)
        H = NF.linear_integrable(GOLD, 2, 8, D_I=1)
        rng = np.random.default_rng(1)
        for k in [(1, 0), (1, 1), (2, -1)]:
            H.add_cos(k, 1e-6 * rng.uniform(0.5, 1.0))
        res = NF.multifrequency_normal_form(H, zb.vectors, SP, 1.0)
        # resonant part's nonzero Fourier modes: only the zero mode
        for k, m, w, c in res.resonant.terms():
            assert k == (0, 0)
        assert res.commutation_defect() < 1e-10


class TestLocalNF:
    def test_identity_for_zero_perturbation(self):
        h = FTSeries.zeros(2, 8, D_I=2)
        h.set_mode((0, 0), 0.5, m=(2, 0))
        h.set_mode((0, 0), 0.5, m=(0, 2))
        f = FTSeries.zeros(2, 8, D_I=2)
        pv = D.periodic_from_rational((1, 2), 2)
        out = NF.local_normal_form(h, f, I1=[0.5, 1.0], rho=0.1, pv=pv,
                                   sp=SP, s=1.0)
        assert out["result"].remainder.coeff_norm1() < 1e-14

    def test_rational_gradient_commutes(self):
        h = FTSeries.zeros(2, 8, D_I=2)
        h.set_mode((0, 0), 0.5, m=(2, 0))
        h.set_mode((0, 0), 0.5, m=(0, 2))
        f = FTSeries.zeros(2, 8, D_I=2).add_cos((1, 1), 1.0).add_cos((1, -2), 0.5)
        pv = D.periodic_from_rational((1, 2), 2)   # v = (1/2, 1)
        out = NF.local_normal_form(h, f * 1e-5, I1=[0.5, 1.0], rho=0.05,
                                   pv=pv, sp=SP, s=1.0)
        res = out["result"]
        assert res.commutation_defect() <= 1e-10
        assert float(np.sum(np.abs(out["grad_h"] - np.asarray(pv.v)))) < 1e-12

    def test_translate_and_scale_identities(self):
        h = FTSeries.zeros(2, 4, D_I=2)
        h.set_mode((0, 0), 0.5, m=(2, 0))
        h.set_mode((0, 0), 1.5, m=(1, 1))
        t = NF.translate_actions(h, [0.2, -0.1])
        pts = np.random.default_rng(0).uniform(size=(5, 2))
        Iv = np.random.default_rng(1).uniform(-0.2, 0.2, (5, 2))
        for i in range(5):
            a = t.eval(pts[i:i + 1], I=Iv[i])[0]
            b = h.eval(pts[i:i + 1], I=Iv[i] + np.array([0.2, -0.1]))[0]
            assert a == pytest.approx(b, rel=1e-12)
        sc = NF.scale_actions(h, 0.3, energy_scale=0.3)
        for i in range(5):
            a = sc.eval(pts[i:i + 1], I=Iv[i])[0]
            b = h.eval(pts[i:i + 1], I=0.3 * Iv[i])[0] / 0.3
            assert a == pytest.approx(b, rel=1e-12)


class TestKamStep:
    def test_zero_perturbation_identity(self):
        f = FTSeries.zeros(2, 8)
        kh = NF.kam_hamiltonian_from_mechanical(f, 0.0, GOLD, K=8)
        new, tr, rep = NF.kam_step(kh, D.golden_profile(), 10.0, SP, 0.25)
        assert rep.certs_after["A"] == 0.0
        assert rep.certs_after["B"] == 0.0
        assert np.max(np.abs(rep.phi_shift)) == 0.0
        p = new.parts()
        assert p["e0"] == pytest.approx(0.5 * float(GOLD @ GOLD))

    def test_contraction_threshold_bisection(self):
        # A+ cert / A cert <= 1/16 for eps below a measured threshold
        fp = D.golden_profile()
        f = FTSeries.zeros(2, 8).add_cos((1, 1))

        def ratio(eps):
            kh = NF.kam_hamiltonian_from_mechanical(f, eps, GOLD, K=8)
            c0 = kh.certs(SP, 0.1)
            new, tr, rep = NF.kam_step(kh, fp, 10.0, SP, 0.1)
            return rep.certs_after["A"] / c0["A"]

        lo, hi = 1e-9, 1e-2
        assert ratio(lo) <= 1.0 / 16.0
        for _ in range(12):
            mid = math.sqrt(lo * hi)
            if ratio(mid) <= 1.0 / 16.0:
                lo = mid
            else:
                hi = mid
        assert 1e-9 < lo < 1e-2  # a genuine threshold was bracketed

    def test_e_shift_bounded_by_A(self):
        fp = D.golden_profile()
        eps = 1e-5
        f = FTSeries.zeros(2, 8).add_cos((1, 1))
        kh = NF.kam_hamiltonian_from_mechanical(f, eps, GOLD, K=8)
        p0 = kh.parts()
        certA = kh.certs(SP, 0.1)["A"]
        new, tr, rep = NF.kam_step(kh, fp, 10.0, SP, 0.1)
        p1 = new.parts()
        # e+ - e o phi: first order in the counterterm jets
        de = abs(p1["e0"] - (p0["e0"] + p0["e1"] @ rep.phi_shift))
        assert de <= certA

    def test_perturbation_wider_than_K_rejected(self):
        f = FTSeries.zeros(2, 6).add_cos((5, 0))
        with pytest.raises(W.ParameterError):
            NF.kam_hamiltonian_from_mechanical(f, 1e-4, GOLD, K=4)


class TestKamIterate:
    def test_defect_convergence_small(self):
        fp = D.golden_profile()
        eps = 1e-4
        f = FTSeries.zeros(2, 16).add_cos((1, 0)).add_cos((1, 1), 0.8)
        kh = NF.kam_hamiltonian_from_mechanical(f, eps, GOLD, K=16)
        dfn = NF.mechanical_defect_fn(f, eps, GOLD, n_grid=32)
        sched = NF.KamSchedule.build(SP, fp, s=0.5, n=2, i_max=6)
        res = NF.kam_iterate(kh, fp, SP, s=0.5, n_iter=4, schedule=sched,
                             defect_fn=dfn, tol=1e-10)
        assert res.converged
        assert res.defects[0] / res.defects[-1] >= 10.0
        assert res.defects[-1] <= 1e-10

    def test_schedule_satisfies_width_budget(self):
        fp = D.golden_profile()
        sched = NF.KamSchedule.build(SP, fp, s=0.5, n=2, i_max=10)
        assert np.sum(sched.sigmas) <= sched.budget + 1e-12
        assert sched.product_lower >= 0.5

    def test_orbit_stays_near_torus(self):
        # integrate from a point on the embedding; it must shadow the torus
        fp = D.golden_profile()
        eps = 1e-4
        f = FTSeries.zeros(2, 16).add_cos((1, 0)).add_cos((1, 1), 0.8)
        kh = NF.kam_hamiltonian_from_mechanical(f, eps, GOLD, K=16)
        dfn = NF.mechanical_defect_fn(f, eps, GOLD, n_grid=32)
        sched = NF.KamSchedule.build(SP, fp, s=0.5, n=2, i_max=6)
        res = NF.kam_iterate(kh, fp, SP, s=0.5, n_iter=3, schedule=sched,
                             defect_fn=dfn, tol=1e-11)
        E0, G0 = res.embedding_theta, res.embedding_I
        th0 = np.array([0.15, 0.67])
        start_th = th0 + np.array([e.eval(th0[None, :])[0] for e in E0])
        start_I = res.omega_star + np.array([g.eval(th0[None, :])[0] for g in G0])
        gradf = f.grad_theta()

        def gth(th, I):
            return eps * np.array([g.eval(th[None, :])[0] for g in gradf])

        def gI(th, I):
            return I

        traj = FL.integrate_midpoint(gth, gI, start_th, start_I, t_end=100.0,
                                     dt=0.02, sample_every=100)
        # distance from the torus graph over theta(t)
        worst = 0.0
        for t_idx in range(len(traj.times)):
            th = traj.thetas[t_idx] % 1.0
            on_torus_I = res.omega_star + np.array(
                [g.eval(th[None, :])[0] for g in G0])
            th_emb = th + np.array([e.eval(th[None, :])[0] for e in E0])
            worst = max(worst, float(np.max(np.abs(
                traj.actions[t_idx] - on_torus_I))))
        assert worst < 5e-6


class TestSteepChain:
    def test_single_stage_equals_local_form(self):
        pv = D.periodic_from_rational((1, 0), 1)
        H = NF.linear_integrable(pv.v, 2, 8, D_I=1)
        H = H + FTSeries.zeros(2, 8, D_I=1).add_cos((1, 1), 1e-5)
        a = NF.nekhoroshev_chain(H, [pv], SP, 1.0)
        b = NF.periodic_normal_form(H, pv, SP, 1.0, xi=2.0)
        assert a.cert_after == pytest.approx(b.cert_after, rel=1e-9)

    def test_two_stage_commutation(self):
        v1 = D.periodic_from_rational((1, 0), 1)
        v2 = D.periodic_from_rational((1, 2), 2)
        H = NF.linear_integrable(v1.v, 2, 8, D_I=1)
        H.set_mode((0, 0), 1e-3, m=(0, 1))
        H = H + FTSeries.zeros(2, 8, D_I=1).add_cos((1, 1), 1e-6).add_cos((2, -1), 5e-7)
        res = NF.nekhoroshev_chain(H, [v1, v2], SP, 1.0)
        assert res.commutation_defect() <= 1e-10

    def test_steep_exponents(self):
        assert NF.steep_exponents(3, 2.0) == [36.0, 6.0, 1.0]
        a = NF.steep_exponents(4, 2.0)
        assert a[0] == (4 * 2.0) ** 3

    def test_dichotomy_probe(self):
        actions = np.array([[0.0, 0.0], [0.1, 1e-8], [0.3, 2e-8], [0.6, 2e-8]])
        basis = np.array([[0.0, 1.0]])
        rep = NF.dichotomy_probe(actions, basis, rho=1.0)
        assert rep["exited"] and rep["exit_index"] == 3
        assert rep["max_perp_drift"] <= 2e-8

    def test_almost_plane_curve_probe(self):
        h = FTSeries.zeros(2, 2, D_I=3)
        h.set_mode((0, 0), 0.5, m=(2, 0))
        h.set_mode((0, 0), 1.0 / 3.0, m=(0, 3))
        curve = np.stack([np.zeros(9), np.linspace(0.0, 0.4, 9)], axis=-1)
        rep = NF.almost_plane_curve_probe(h, curve, np.array([[0.0, 1.0]]),
                                          rho=0.4, L=0.5, p=2.0)
        assert rep["steep_witnessed"]  # |I2^2| reaches 0.16 > 0.5*0.16/..
        assert rep["max_proj_grad"] == pytest.approx(0.16, rel=1e-12)


class TestStabilityPredict:
    def test_monotone_in_eps(self):
        fp = D.golden_profile()
        for regime, kw in [("linear", {"fp": fp}),
                           ("nonlinear-local", {"fp": fp, "rho": 0.1}),
                           ("quasiconvex", {"fp": None}),
                           ("steep", {"fp": None, "p": 2.0})]:
            a = NF.stability_time_predict(regime, SP, s=1.0, eps=1e-4, n=2, **kw)
            b = NF.stability_time_predict(regime, SP, s=1.0, eps=5e-5, n=2, **kw)
            assert b["time"] > a["time"]
            if "radius" in a:
                assert b["radius"] <= a["radius"] + 1e-15

    def test_gevrey_quasiconvex_shape(self):
        # for Gevrey-alpha, ln(time) ~ eps^(-1/(2 n alpha))
        sp1 = W.ScaleProfile(W.build_sequence(W.gevrey(1), 1 << 21))
        ts = []
        es = [1e-6, 1e-8]
        for eps in es:
            ts.append(NF.stability_time_predict("quasiconvex", sp1, fp=None,
                                                s=1.0, eps=eps, n=2)["time"])
        slope = (math.log(math.log(ts[1])) - math.log(math.log(ts[0]))) / \
            (math.log(es[1]) - math.log(es[0]))
        assert abs(-slope - 1.0 / (2 * 2 * 1.0)) < 0.05

    def test_linear_regime_uses_delta_inverse(self):
        fp = D.golden_profile()
        out = NF.stability_time_predict("linear", SP, fp=fp, s=1.0, eps=1e-6, n=2)
        assert out["Q"] == pytest.approx(fp.delta_star(1.0 / 1e-6), rel=1e-12)


def test_remainder_monotone_under_eps_refinement():
    # halving eps never increases the measured final remainder
    pv = D.periodic_from_rational((1, 0), 1)
    certs = []
    for eps in [4e-4, 2e-4, 1e-4]:
        H = NF.linear_integrable(pv.v, 2, 8, D_I=2)
        pert = FTSeries.zeros(2, 8, D_I=2).add_sin((1, 1), eps)
        pert.set_mode((1, 1), eps / 2.0j, m=(1, 0))
        pert.set_mode((-1, -1), -eps / 2.0j, m=(1, 0))
        res = NF.periodic_normal_form(H + pert, pv, SP, s=0.5, xi=2.0)
        certs.append(res.cert_after)
    assert certs[0] >= certs[1] >= certs[2]


def test_first_integral_tracked_through_schedule():
    # supplying I2 with {I2, F} = 0 keeps {I2, resonant} below 1e-10
    pv = D.periodic_from_rational((1, 0), 1)
    H = NF.linear_integrable(pv.v, 2, 8, D_I=2)
    pert = FTSeries.zeros(2, 8, D_I=2).add_sin((1, 0), 1e-4)
    pert.set_mode((1, 0), 1e-4 / 2j, m=(1, 0))
    pert.set_mode((-1, 0), -1e-4 / 2j, m=(1, 0))
    I2 = FTSeries.zeros(2, 8, D_I=1)
    I2.set_mode((0, 0), 1.0, m=(0, 1))
    res = NF.periodic_normal_form(H + pert, pv, SP, s=0.5, xi=2.0,
                                  first_integral=I2)
    assert all(e["first_integral_defect"] <= 1e-10 for e in res.schedule_log)
    assert poisson_bracket(res.resonant, I2, K_out=8).coeff_norm1() <= 1e-10


def test_schedule_m_within_bracket():
    sp = SP
    T, eta, nu, xi = 1.0, 1e-5, 1e-4, 2.0
    sched = NF.NFSchedule.build(xi, sp, 1.0, T, eta, nu)
    kappa = math.log(xi) / 24.0
    ci = sp.cauchy_c_inv(1.0 / (T * eta))
    assert kappa / ci <= sched.m <= 1.0 + kappa / ci
    assert np.allclose(sched.nu_budgets,
                       nu * np.exp(-np.arange(1, sched.m + 1)))


def test_multifrequency_remainder_improves_with_eps():
    fp = D.golden_profile()
    zb = D.zbasis_approx(fp, 5)
    rels = []
    for eps in [1e-4, 1e-5]:
        H = NF.linear_integrable(GOLD, 2, 8, D_I=1)
        for k in [(1, 0), (1, 1), (2, -1)]:
            H.add_cos(k, eps)
        res = NF.multifrequency_normal_form(H, zb.vectors, SP, 1.0)
        rels.append(res.cert_after / eps)
    assert rels[1] <= rels[0]
