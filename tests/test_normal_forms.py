import itertools
import math

import numpy as np
import pytest

from oracles import block, occupied_band
from udham import dioph as D
from udham import flows as FL
from udham import normal_forms as NF
from udham import weights as W
from udham.series import FTSeries, average_periodic, norm_upper, poisson_bracket

SP = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
GOLD = np.array([1.0, D.GOLDEN])


def toy_hamiltonian(eps, K=8, with_action=True):
    pv = D.periodic_from_rational((1, 0), 1)
    H = NF.linear_integrable(pv.v, 2, K, D_I=2)
    pert = FTSeries.zeros(2, K, D_I=2).add_sin((1, 1), eps)
    if with_action:
        pert.set_mode((1, 1), eps / 2.0j, m=(1, 0))
        pert.set_mode((-1, -1), -eps / 2.0j, m=(1, 0))
    return H + pert, pv


def toy_split(eps, K=8, with_action=True):
    H, pv = toy_hamiltonian(eps, K, with_action)
    return NF.PeriodicSplit.from_hamiltonian(H, pv), pv


class TestAveragingStep:
    def test_zero_remainder_identity(self):
        pv = D.periodic_from_rational((1, 0), 1)
        H = NF.linear_integrable(pv.v, 2, 8, D_I=1)
        split = NF.PeriodicSplit.from_hamiltonian(H, pv)
        new, Y = NF.averaging_step(split)
        assert Y.coeff_norm1() == 0.0
        assert new.F.coeff_norm1() == 0.0

    def test_nonresonant_mode_removed(self):
        split, pv = toy_split(1e-4, with_action=False)
        new, Y = NF.averaging_step(split)
        # {F, Y} = 0 for this angle-only toy, so the removal is exact
        assert new.F.coeff_norm1() < 1e-18

    def test_quadratic_scaling(self):
        sizes = []
        for eps in [1e-3, 5e-4]:
            split, pv = toy_split(eps, with_action=True)
            new, Y = NF.averaging_step(split)
            sizes.append(new.F.coeff_norm1())
        slope = math.log(sizes[0] / sizes[1]) / math.log(2.0)
        assert abs(slope - 2.0) < 0.1

    def test_remainder_within_second_order_bound(self):
        # one step with sigma = 0.2 at s = 0.5, certified by periodic_normal_form
        H, pv = toy_hamiltonian(1e-4, with_action=True)
        sched = NF.NFSchedule(xi=2.0, m=1, sigma1=0.2, sigma_m=0.2, A=1.0,
                              nu_budgets=np.array([1.0]))
        entry, = NF.periodic_normal_form(H, pv, SP, 0.5, schedule=sched).schedule_log
        assert entry["remainder_cert"] <= entry["second_order_bound"]
        # both positive: the measured constant cert / bound is defined
        assert entry["remainder_cert"] > 0 and entry["second_order_bound"] > 0

    def test_first_integral_preserved(self):
        # {I2, F} = 0 when F has no theta_2 dependence; averaging keeps it
        pv = D.periodic_from_rational((1, 0), 1)
        H = NF.linear_integrable(pv.v, 2, 8, D_I=2)
        pert = FTSeries.zeros(2, 8, D_I=2).add_sin((1, 0), 1e-4)
        pert.set_mode((1, 0), 1e-4 / 2j, m=(1, 0))
        pert.set_mode((-1, 0), -1e-4 / 2j, m=(1, 0))
        split = NF.PeriodicSplit.from_hamiltonian(H + pert, pv)
        new, Y = NF.averaging_step(split)
        I2 = FTSeries.zeros(2, 8, D_I=1)
        I2.set_mode((0, 0), 1.0, m=(0, 1))
        res = poisson_bracket(new.G + new.F, I2, K_out=8)
        assert res.coeff_norm1() < 1e-10

    def test_remainder_equals_flow_of_whole_hamiltonian(self):
        # the remainder formed from the homological identity equals the
        # time-1 flow of the whole H with L_v, S and G + [F]_v taken out
        split, pv = toy_split(1e-3, K=8)
        new, Y = NF.averaging_step(split)
        Lv = NF.linear_integrable(pv.v, 2, 8, D_I=2)
        H = Lv + split.S + split.G + split.F
        G_new = split.G + average_periodic(split.F, pv)
        ref = FL.lie_flow(Y, H, K_out=8, D_I_out=2) - Lv - split.S - G_new
        assert new.F.coeff_norm1() > 0.0
        assert (new.F - ref).coeff_norm1() <= 1e-12 * split.F.coeff_norm1()


class TestPeriodicNF:
    def test_m1_reduces_to_single_step(self):
        H, pv = toy_hamiltonian(1e-4)
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

    def test_grid_identity_of_transform(self, monkeypatch):
        # transformed Hamiltonian equals original o flow on sample points
        H, pv = toy_hamiltonian(1e-3, K=8)
        generators = []   # each step's Y, recorded as averaging_step returns it
        step = NF.averaging_step

        def spy(split):
            new, Y = step(split)
            generators.append(Y)
            return new, Y

        monkeypatch.setattr(NF, "averaging_step", spy)
        res = NF.periodic_normal_form(H, pv, SP, s=0.5, xi=2.0)
        assert len(generators) == len(res.schedule_log)
        # the log holds scalars only: no step's generator outlives the run
        assert not any(isinstance(v, FTSeries) for e in res.schedule_log for v in e.values())
        pts_th = np.random.default_rng(3).uniform(size=(12, 2))
        pts_I = np.random.default_rng(4).uniform(-0.2, 0.2, (12, 2))
        z_th, z_I = pts_th.copy(), pts_I.copy()
        # generators applied innermost-first: flow points through each Y
        from scipy.integrate import solve_ivp
        for Y in reversed(generators):
            if Y.coeff_norm1() == 0.0:
                continue
            gth = Y.grad_theta()
            gI = [Y.dI(i) for i in range(Y.n)]
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
        H, pv = toy_hamiltonian(1e-4)
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
        sc = NF.scale_actions(h, 0.3)
        for i in range(5):
            a = sc.eval(pts[i:i + 1], I=Iv[i])[0]
            b = h.eval(pts[i:i + 1], I=0.3 * Iv[i])[0] / 0.3
            assert a == pytest.approx(b, rel=1e-12)


class TestKamStep:
    def test_zero_perturbation_identity(self):
        f = FTSeries.zeros(2, 8)
        kh = NF.kam_hamiltonian_from_mechanical(f, 0.0, GOLD, K=8)
        new, tr, phi_shift, phi_matrix = NF.kam_step(kh, D.golden_profile(), 10.0)
        certs = new.certs(SP, 0.25)
        assert certs["A"] == 0.0
        assert certs["B"] == 0.0
        assert np.max(np.abs(phi_shift)) == 0.0
        p = new.parts()
        assert p["e0"] == pytest.approx(0.5 * float(GOLD @ GOLD))

    def test_contraction_threshold_bisection(self):
        # A+ cert / A cert <= 1/16 for eps below a measured threshold
        fp = D.golden_profile()
        f = FTSeries.zeros(2, 8).add_cos((1, 1))

        def ratio(eps):
            kh = NF.kam_hamiltonian_from_mechanical(f, eps, GOLD, K=8)
            c0 = kh.certs(SP, 0.1)
            new, tr, phi_shift, phi_matrix = NF.kam_step(kh, fp, 10.0)
            return new.certs(SP, 0.1)["A"] / c0["A"]

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
        new, tr, phi_shift, phi_matrix = NF.kam_step(kh, fp, 10.0)
        p1 = new.parts()
        # e+ - e o phi: first order in the counterterm jets
        de = abs(p1["e0"] - (p0["e0"] + p0["e1"] @ phi_shift))
        assert de <= certA

    def test_step_stores_each_series_at_its_occupied_band(self):
        # the README f at K = 32: each series of a step stores the window
        # |k|_inf <= b of its occupied band b, which stays far below K
        f = FTSeries.zeros(2, 32).add_cos((1, 0)).add_cos((1, 1), 0.8).add_sin((2, 1), 0.5)
        fp = D.golden_profile()
        Q = NF.KamSchedule.build(SP, fp, s=0.5, n=2, i_max=8).Qs[0]
        kh = NF.kam_hamiltonian_from_mechanical(f, 1e-4, GOLD, K=32)
        new, tr, _, _ = NF.kam_step(kh, fp, Q)
        bands = []
        for s in [new.H] + tr.E + tr.A:
            b = occupied_band(s)
            assert s.K == 32 and s.coef.shape == (len(s.keys),) + (2 * b + 1,) * 2
            bands.append(b)
        assert 0 < max(bands) < 16

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

    def test_certificate_independent_of_bandwidth(self):
        # the README perturbation: with every transform pruned at its
        # round-off floor, cert_A measures the torus, not the bandwidth
        fp = D.golden_profile()
        sched = NF.KamSchedule.build(SP, fp, s=0.5, n=2, i_max=8)
        certs = []
        for K in (16, 24):
            f = FTSeries.zeros(2, K).add_cos((1, 0)).add_cos((1, 1), 0.8)
            f.add_sin((2, 1), 0.5)
            kh = NF.kam_hamiltonian_from_mechanical(f, 1e-4, GOLD, K=K)
            res = NF.kam_iterate(kh, fp, SP, s=0.5, n_iter=1, schedule=sched)
            certs.append(res.cert_log[0]["A"])
        assert 0.5 <= certs[0] / certs[1] <= 2.0

    def test_schedule_satisfies_width_budget(self):
        fp = D.golden_profile()
        sched = NF.KamSchedule.build(SP, fp, s=0.5, n=2, i_max=10)
        assert np.sum(sched.sigmas) <= sched.budget + 1e-12
        assert sched.product_lower >= 0.5

    def test_schedule_is_the_br_test_sequence_at_q0(self):
        # the first i_max + 1 terms of br_test's sequence, equal to a fresh
        # sequence at the Q0 it returns
        fp = D.golden_profile()
        sched = NF.KamSchedule.build(SP, fp, s=0.5, n=2, i_max=10)
        Qs, sigmas = D._dyadic_sigmas(SP, D.golden_profile(), sched.Q0, 0.5, 0.0, 10, 1.0)
        assert np.array_equal(sched.Qs, Qs) and np.array_equal(sched.sigmas, sigmas)
        assert sched.product_lower == float(np.exp(5 * np.sum(np.log1p(-sigmas))))

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
            worst = max(worst, float(np.max(np.abs(
                traj.actions[t_idx] - on_torus_I))))
        assert worst < 5e-6

    def test_defect_equals_fourier_sum_defect(self):
        # the defect of an embedding whose E* and G* hold modes |k|_inf <= 5,
        # more than the 8^2 grid resolves, against one from direct sums
        rng = np.random.default_rng(3)
        n_grid, eps, omega_star = 8, 1e-3, GOLD + np.array([1e-6, -2e-6])
        f = FTSeries.zeros(2, 6).add_cos((1, 0)).add_cos((1, 1), 0.8).add_sin((2, 1), 0.5)

        def embedding_part(scale):
            arr = rng.normal(size=(11, 11)) + 1j * rng.normal(size=(11, 11))
            blk = 0.5 * scale * (arr + np.conj(arr[::-1, ::-1]))
            return FTSeries.from_blocks(FTSeries.zeros(2, 5), {((0, 0), ()): blk})

        E0 = [embedding_part(1e-5) for _ in range(2)]
        G0 = [embedding_part(1e-5) for _ in range(2)]

        def direct(s, pts, alpha=(0, 0)):
            # sum_k c_k (2 pi i k)^alpha e^{2 pi i k.theta}, term by term
            ks = np.indices((2 * s.K + 1,) * 2).reshape(2, -1).T - s.K
            mult = np.prod((2j * np.pi * ks) ** np.array(alpha), axis=1)
            c = np.asarray(block(s)).reshape(-1) * mult
            return (np.exp(2j * np.pi * pts @ ks.T) @ c).real

        grid = np.stack(np.meshgrid(*[np.arange(n_grid) / n_grid] * 2, indexing="ij"),
                        axis=-1).reshape(-1, 2)
        units = [(1, 0), (0, 1)]
        Ev = np.stack([direct(e, grid) for e in E0], axis=-1)
        Gv = np.stack([direct(g, grid) for g in G0], axis=-1)
        dE = np.moveaxis([[direct(e, grid, u) for u in units] for e in E0], -1, 0)
        dG = np.moveaxis([[direct(g, grid, u) for u in units] for g in G0], -1, 0)
        gf = np.stack([direct(f, grid + Ev, u) for u in units], axis=-1)
        d_theta = GOLD + np.einsum("pij,j->pi", dE, GOLD) - (omega_star + Gv)
        d_I = np.einsum("pij,j->pi", dG, GOLD) + eps * gf
        expect = max(np.max(np.abs(d_theta)), np.max(np.abs(d_I)))
        got = NF.mechanical_defect_fn(f, eps, GOLD, n_grid=n_grid)(E0, G0, omega_star)
        assert expect > 1e-3
        assert got == pytest.approx(expect, rel=1e-12)


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
    # I2 with {I2, F} = 0 stays a first integral of G and of F at each of
    # the run's m steps, and of the final resonant part
    pv = D.periodic_from_rational((1, 0), 1)
    H = NF.linear_integrable(pv.v, 2, 8, D_I=2)
    pert = FTSeries.zeros(2, 8, D_I=2).add_sin((1, 0), 1e-4)
    pert.set_mode((1, 0), 1e-4 / 2j, m=(1, 0))
    pert.set_mode((-1, 0), -1e-4 / 2j, m=(1, 0))
    I2 = FTSeries.zeros(2, 8, D_I=1)
    I2.set_mode((0, 0), 1.0, m=(0, 1))
    res = NF.periodic_normal_form(H + pert, pv, SP, s=0.5, xi=2.0)
    split = NF.PeriodicSplit.from_hamiltonian(H + pert, pv)
    for _ in res.schedule_log:
        split, Y = NF.averaging_step(split)
        assert poisson_bracket(split.G, I2, K_out=8).coeff_norm1() <= 1e-10
        assert poisson_bracket(split.F, I2, K_out=8).coeff_norm1() <= 1e-10
    assert poisson_bracket(res.resonant, I2, K_out=8).coeff_norm1() <= 1e-10


def _counted_nf(monkeypatch, H, pv):
    """periodic_normal_form's log and the (series, width) of each norm it forms."""
    seen = []

    def counted(f, sp, s):
        seen.append((f, s))   # holds f, so no two live series share an id
        return norm_upper(f, sp, s)

    monkeypatch.setattr(NF, "norm_upper", counted)
    return NF.periodic_normal_form(H, pv, SP, s=1.0, xi=2.0).schedule_log, seen


def test_each_certificate_is_formed_once(monkeypatch):
    # with c I_1^2 in S, dS/dI_1 = 2c I_1 has action degree 1, so |grad S|
    # depends on the width: nu_0 and the two parts of eta at s, then per
    # step the remainder and, after the first, eta at the step's width, then
    # the final remainder: 3m + 2 norms, and no series object is certified
    # twice at one width
    from udham import cli
    H, pv = cli._toy_nf_hamiltonian(cli.ExperimentConfig("nf"))
    H = H + FTSeries.zeros(2, H.K, D_I=2).set_mode((0, 0), 1e-7, m=(2, 0))
    log, seen = _counted_nf(monkeypatch, H, pv)
    m = len(log)
    assert m > 1
    assert len(seen) == 3 * m + 2
    assert len({(id(f), s) for f, s in seen}) == len(seen)
    # eta_j, read back from the second-order bound, is |grad S| at s_j
    split = NF.PeriodicSplit.from_hamiltonian(H, pv)
    s_j, nu, etas = 1.0, norm_upper(split.F, SP, 1.0).bound, []
    for entry in log:
        C = SP.cauchy_c(entry["sigma"]).value
        etas.append(NF.grad_cert(split.S, SP, s_j))
        assert entry["second_order_bound"] == pv.T * nu * (nu * C ** 2 / s_j ** 2
                                                           + etas[-1] * C / s_j)
        s_j, nu = entry["width"], entry["remainder_cert"]
    assert len(set(etas)) == m


def test_affine_s_forms_eta_once(monkeypatch):
    # on the nf toy S = eta I_2: grad S is a constant, so eta is formed once,
    # at s, and the run forms nu_0, the two parts of eta, one remainder per
    # step and the final remainder: m + 4 norms
    from udham import cli
    H, pv = cli._toy_nf_hamiltonian(cli.ExperimentConfig("nf"))
    log, seen = _counted_nf(monkeypatch, H, pv)
    assert len(log) > 1
    assert len(seen) == len(log) + 4


def test_schedule_m_within_bracket():
    sp = SP
    T, eta, nu, xi = 1.0, 1e-5, 1e-4, 2.0
    sched = NF.NFSchedule.build(xi, sp, 1.0, T, eta, nu)
    kappa = math.log(xi) / 24.0
    ci = sp.cauchy_c_inv(1.0 / (T * eta))
    assert kappa / ci <= sched.m <= 1.0 + kappa / ci
    assert np.allclose(sched.nu_budgets,
                       nu * np.exp(-np.arange(1, sched.m + 1)))


def _multifrequency_rel_remainder(eps, with_action):
    zb = D.zbasis_approx(D.golden_profile(), 5)
    H = NF.linear_integrable(GOLD, 2, 8, D_I=1)
    for k in [(1, 0), (1, 1), (2, -1)]:
        H.add_cos(k, eps)
    if with_action:
        H.add_cos((1, 1), eps, m=(1, 0))
    return NF.multifrequency_normal_form(H, zb.vectors, SP, 1.0).cert_after / eps


def test_multifrequency_remainder_improves_with_eps():
    # without action dependence every bracket after the first vanishes, so
    # cert_after / eps does not depend on eps
    r0, r1 = (_multifrequency_rel_remainder(eps, False) for eps in [1e-4, 1e-5])
    assert abs(r1 / r0 - 1.0) <= 1e-12
    # eps I_1 cos 2 pi (th1 + th2) gives a genuine eps^2 part
    r0, r1 = (_multifrequency_rel_remainder(eps, True) for eps in [1e-4, 1e-5])
    assert r1 < r0


def _prime_length_product(f, g, K_out=None, D_I_out=None, report=None):
    """`series.product` by complex FFTs of prime length, summing the block
    pairs in reverse order, pruned at the same a-priori floor."""
    K_full = f.K + g.K
    K_out = K_out if K_out is not None else max(f.K, g.K)
    D_I_out = D_I_out if D_I_out is not None else f.D_I + g.D_I
    D_w = max(f.D_w, g.D_w)
    n = f.n
    L = next(q for q in range(2 * K_full + 1, 8 * K_full + 8)
             if all(q % d for d in range(2, q)))
    axes = tuple(range(1, n + 1))

    def spectrum(src):
        buf = np.zeros((len(src.keys),) + (L,) * n, dtype=complex)
        buf[(slice(None),) + (slice(0, 2 * src.K + 1),) * n] = src.coef
        return np.fft.fftn(buf, axes=axes)

    F, G = spectrum(f), spectrum(g)
    pairs = []
    for i, (m1, w1) in enumerate(f.keys):
        for j, (m2, w2) in enumerate(g.keys):
            m = tuple(a + b for a, b in zip(m1, m2))
            w = tuple(a + b for a, b in zip(w1, w2))
            if sum(w) <= D_w and sum(m) <= D_I_out:
                pairs.append(((m, w), i, j))
    keys = list(dict.fromkeys(key for key, _, _ in pairs))
    full = np.zeros((len(keys),) + (L,) * n, dtype=complex)
    for key, i, j in reversed(pairs):
        full[keys.index(key)] += F[i] * G[j]
    full = np.fft.ifftn(full, axes=axes)
    kk = min(K_out, K_full)
    kept = full[(slice(None),) + (slice(K_full - kk, K_full + kk + 1),) * n]
    kept = 0.5 * (kept + np.conj(kept[(slice(None),) + (slice(None, None, -1),) * n]))
    kept = np.pad(kept, [(0, 0)] + [(K_out - kk,) * 2] * n)
    floor = np.finfo(float).eps * n * math.log2(L) * f.coeff_norm1() * g.coeff_norm1()
    kept[np.abs(kept) < floor] = 0.0
    out = FTSeries.from_blocks(FTSeries.zeros(n, K_out, D_I=D_I_out, D_w=D_w, n_w=f.n_w),
                               dict(zip(keys, kept)))
    return out.prune()


def test_certificates_independent_of_transform_and_summation_order(monkeypatch):
    from udham import cli
    from udham import series
    H, pv = cli._toy_nf_hamiltonian(cli.ExperimentConfig("nf"))
    runs = [NF.periodic_normal_form(H, pv, SP, s=1.0, xi=2.0)]
    monkeypatch.setattr(series, "product", _prime_length_product)
    runs.append(NF.periodic_normal_form(H, pv, SP, s=1.0, xi=2.0))
    a, b = runs
    assert len(a.schedule_log) == len(b.schedule_log) > 1
    for ea, eb in zip(a.schedule_log, b.schedule_log):
        assert eb["remainder_cert"] == pytest.approx(ea["remainder_cert"], rel=1e-8)
    assert b.cert_after == pytest.approx(a.cert_after, rel=1e-8)
    assert (a.resonant - b.resonant).coeff_norm1() <= 1e-12 * a.resonant.coeff_norm1()


def _dense_nf_blocks(seed, K=12):
    """The averaging benchmark's input stored at K: L_v + eta I_2 + eps f with
    v = (1, 0), eta = 1e-7, eps = 1e-5 and, for |m| <= 2 and
    0 < |k|_inf <= 8, f_km = (a + i b) e^{-|k|_1} / 2, f_{-k,m} = conj f_km."""
    rng = np.random.default_rng(seed)
    r = range(-8, 9)
    blocks = {}
    for m in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        b = np.zeros((2 * K + 1,) * 2, dtype=complex)
        for k in itertools.product(r, r):
            if k <= (0, 0):
                continue
            c = complex(rng.normal(), rng.normal()) * math.exp(-abs(k[0]) - abs(k[1])) / 2
            b[K + k[0], K + k[1]] = 1e-5 * c
            b[K - k[0], K - k[1]] = 1e-5 * c.conjugate()
        blocks[(m, ())] = b
    blocks[((1, 0), ())][K, K] = 1.0
    blocks[((0, 1), ())][K, K] = 1e-7
    return blocks


def test_stage_certificates_stable_under_roundoff_probe():
    # scaling each +-k pair of the input by 1 + 1e-15 N(0, 1) (real, k = 0
    # kept) moves every stage certificate by round-off only, because the
    # step never forms F + {L_v, Y} = [F]_v in floating point: that sum
    # cancels at the scale of |F| and amplified such noise to about 1e-4
    K = 12
    pv = D.periodic_from_rational((1, 0), 1)
    base = _dense_nf_blocks(1, K)
    like = FTSeries.zeros(2, K, D_I=2)

    def certs(blocks):
        res = NF.periodic_normal_form(FTSeries.from_blocks(like, blocks), pv, SP,
                                      s=1.0, xi=2.0)
        return np.array([e["remainder_cert"] for e in res.schedule_log])

    ref = certs(base)
    rng = np.random.default_rng(7)
    for _ in range(3):
        probe = {}
        for key, b in base.items():
            fac = 1.0 + 1e-15 * rng.standard_normal(b.shape)
            fac = (fac + fac[::-1, ::-1]) / 2
            fac[K, K] = 1.0
            probe[key] = b * fac
        moved = certs(probe)
        assert len(moved) == len(ref) > 30
        assert np.max(np.abs(moved / ref - 1.0)) <= 1e-6
