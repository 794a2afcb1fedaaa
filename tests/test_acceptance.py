"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (also appended to
acceptance_report.txt next to this file's repo root) and asserts the
criterion.  Criterion 9's sqrt(eps) embedding-distance rate is an upper
bound, not an asymptotic: for the fixed family H = |I|^2/2 + eps f the
torus is analytic in eps with a nonzero first-order term, so 09b asserts
the bound (fitted slope >= 0.4), agreement with the first-order Lindstedt
torus computed from f's coefficients, and a final invariance defect far
below the measured distance.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import homological_integral_oracle
from udham import dioph as D
from udham import flows as FL
from udham import instability as INS
from udham import normal_forms as NF
from udham import weights as W
from udham.series import (FTSeries, average_periodic, average_zero_mode,
                          norm_upper, poisson_bracket, solve_homological_periodic)

REPORT = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_t0 = None


def _line(crit, ok, detail):
    txt = f"ACCEPTANCE {crit}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(txt)
    with open(REPORT, "a") as fh:
        fh.write(txt + "\n")
    return ok


@pytest.fixture(scope="module", autouse=True)
def _fresh_report():
    if REPORT.exists():
        REPORT.unlink()
    yield


def test_criterion_01_gevrey_asymptotics():
    t0 = time.time()
    ok = True
    details = []
    for alpha, L in [(1.0, 4_000_000), (1.5, 200_000), (2.0, 8192)]:
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(alpha), L))
        ys = np.logspace(2, 6, 17)
        lo = np.log(ys)
        lom = np.log([sp.omega_value(float(y)) for y in ys])
        lci = np.log([sp.cauchy_c_inv(float(y)) for y in ys])
        # slope at the asymptotic end of the stated window (top decade)
        s_om = (lom[-1] - lom[-5]) / (lo[-1] - lo[-5])
        s_ci = (lci[-1] - lci[-5]) / (lo[-1] - lo[-5])
        ok &= abs(s_om * alpha - 1.0) < 0.03 and abs(-s_ci * alpha - 1.0) < 0.03
        details.append(f"a={alpha}: Om {s_om:.4f} Cinv {s_ci:.4f}")
    el = time.time() - t0
    ok &= el < 5.0
    assert _line("01 gevrey asymptotics", ok, "; ".join(details) + f" ({el:.2f}s)")


def test_criterion_02_product_lemma_constants():
    t0 = time.time()
    worst_p, worst_c = 0.0, 0.0
    for fam in [W.gevrey(1), W.gevrey(2), W.gevrey_log(1, 1),
                W.gevrey_log(1.5, 2), W.exp_log(), W.exp_sqrt()]:
        ws = W.build_sequence(fam, 320)
        worst_p = max(worst_p, W.product_lemma_scan(ws))
        worst_c = max(worst_c, W.composition_lemma_scan(ws))
    el = time.time() - t0
    ok = worst_p <= W.C_NORM + 1e-9 and worst_c <= W.C_NORM + 1e-9 and el < 1.0
    assert _line("02 product-lemma constants", ok,
                 f"max scans {worst_p:.4f}/{worst_c:.4f} vs c={W.C_NORM:.4f} ({el:.2f}s)")


def test_criterion_03_moderate_growth_lemma():
    # the pair-sup has exponent 1/(l+j); restricted to the diagonal j = l it
    # gives M_{2l} <= (A_MG^2)^l M_l^2, which is the scan's constant
    ok = True
    details = []
    for alpha in [1.0, 1.5, 2.0]:
        ws = W.build_sequence(W.gevrey(alpha), 512)
        A = W.check_conditions(ws).mg_value ** 2
        l = np.arange(1, 151)
        lhs = ws.log_M[2 * l]
        rhs = l * math.log(A) + 2.0 * ws.log_M[l]
        ok &= bool(np.all(lhs <= rhs + 1e-9))
        # and the mu-bound of the same lemma holds with this A
        ok &= W.mg_mu_bound_scan(ws)
        details.append(f"a={alpha}: A={A:.3f}")
    assert _line("03 moderate-growth scan", ok, "; ".join(details))


def test_criterion_04_psi_exactness():
    t0 = time.time()
    om = np.array([1.0, D.GOLDEN])
    fp = D.profile_from_cf(om)
    vals, ks = D.psi_brute_table(om, 200)
    worst = 0.0
    k_ok = True
    conv_ks = set()
    for (p, q, e) in fp.convergents:
        conv_ks.add((p, -q))
        conv_ks.add((-p, q))
    conv_ks.add((1, 0))
    conv_ks.add((-1, 0))
    for Q in range(1, 201):
        v, k = fp.psi(Q)
        worst = max(worst, abs(v - vals[Q - 1]) / vals[Q - 1])
        k_ok &= (k == ks[Q - 1]) and (tuple(k) in conv_ks)
    el = time.time() - t0
    ok = worst < 1e-12 and k_ok and el < 10.0
    assert _line("04 psi exactness", ok,
                 f"worst rel {worst:.2e}, convergent-derived k: {k_ok} ({el:.2f}s)")


def test_criterion_05_br_dyadic_test():
    sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
    fp = D.golden_profile()
    rep = D.br_test(sp, fp, s=1.0, eta=0.0, n=2, i_max=24)
    budget = math.log(2.0) / 10.0
    prod = float(np.prod((1.0 - rep.sigmas) ** 5))
    ok = (rep.verdict == "ConvergedWithinBudget"
          and float(np.sum(rep.sigmas)) <= budget and prod >= 0.5)

    sp2 = W.ScaleProfile(W.build_sequence(W.exp_sqrt(), 1 << 16))
    rep2 = D.br_test(sp2, fp, s=1.0, eta=0.0, n=2, i_max=40)
    i = np.arange(8, len(rep2.partial_sums))
    A = np.vstack([np.log(i + 1.0), np.ones(len(i))]).T
    coef, res, *_ = np.linalg.lstsq(A, rep2.partial_sums[8:], rcond=None)
    ss = np.sum((rep2.partial_sums[8:] - rep2.partial_sums[8:].mean()) ** 2)
    r2 = 1.0 - res[0] / ss
    ok &= rep2.verdict == "DivergenceDiagnosed" and r2 >= 0.95
    assert _line("05 BR dyadic test", ok,
                 f"golden Q0={rep.Q0} sum={float(np.sum(rep.sigmas)):.4f}<= {budget:.4f} "
                 f"prod={prod:.3f}; expsqrt {rep2.verdict} lnfit R2={r2:.3f}")


def test_criterion_06_averaging_projection_identity():
    fp = D.golden_profile()
    zb = D.zbasis_approx(fp, 5)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        arr = rng.normal(size=(11, 11)) + 1j * rng.normal(size=(11, 11))
        flip = np.conj(arr[::-1, ::-1])
        f = FTSeries.from_blocks(FTSeries.zeros(2, 5), {((0, 0), ()): 0.5 * (arr + flip)})
        g1 = average_periodic(average_periodic(f, zb.vectors[0]), zb.vectors[1])
        g2 = average_zero_mode(f)
        worst = max(worst, (g1 - g2).coeff_norm1() / max(f.coeff_norm1(), 1.0))
    ok = worst <= 1e-12
    assert _line("06 averaging projection identity", ok,
                 f"worst over 100 random trig polys: {worst:.2e}")


def test_criterion_07_homological_solver():
    pv = D.periodic_from_rational((2, 3), 3)
    rng = np.random.default_rng(7)
    arr = rng.normal(size=(11, 11)) + 1j * rng.normal(size=(11, 11))
    f = FTSeries.from_blocks(FTSeries.zeros(2, 5),
                             {((0, 0), ()): 0.5 * (arr + np.conj(arr[::-1, ::-1]))})
    f_nr = f - average_periodic(f, pv)
    Y1 = solve_homological_periodic(f_nr, pv)
    Y2 = homological_integral_oracle(f, pv)
    agree = max(abs(Y1.get_mode(k, m, w) - Y2.get_mode(k, m, w))
                for k, m, w, c in Y1.terms())
    Lv = NF.linear_integrable(pv.v, 2, 5, D_I=1)
    res = (poisson_bracket(Y1, Lv, K_out=5) - f_nr).coeff_norm1()
    ok = agree <= 1e-12 and res <= 1e-10
    assert _line("07 homological solver", ok,
                 f"divisor vs integral {agree:.2e}; bracket residual {res:.2e}")


def test_criterion_08_periodic_normal_form():
    t0 = time.time()
    sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
    pv = D.periodic_from_rational((1, 0), 1)
    eta = 1e-5
    H = NF.linear_integrable(pv.v, 2, 16, D_I=1)
    H.set_mode((0, 0), eta / W.C_NORM, m=(0, 1))
    rng = np.random.default_rng(0)
    for k in [(1, 1), (2, -1), (0, 1), (3, 2), (1, 0)]:
        H.add_cos(k, 1e-4 * rng.uniform(0.5, 1.0))
    res = NF.periodic_normal_form(H, pv, sp, s=1.0, xi=2.0)
    m = len(res.schedule_log)
    within = sum(1 for e in res.schedule_log if e["within_budget"])
    el = time.time() - t0
    ok = (res.cert_after <= 2.0 * res.cert_before * math.exp(-m)
          and within >= 0.9 * m and el < 60.0)
    assert _line("08 periodic NF (Neishtadt)", ok,
                 f"m={m}, final {res.cert_after:.2e} <= 2 nu e^-m "
                 f"{2*res.cert_before*math.exp(-m):.2e}, budget hits {within}/{m} ({el:.1f}s)")


SP_KAM = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 16))
F_KAM = FTSeries.zeros(2, 32).add_cos((1, 0)).add_cos((1, 1), 0.8).add_sin((2, 1), 0.5)
OMEGA0_KAM = np.array([1.0, D.GOLDEN])
GRID_KAM = np.stack(np.meshgrid(*[np.arange(48) / 48] * 2, indexing="ij"),
                    -1).reshape(-1, 2)
_kam_cache = {}


def _kam_run(eps, n_iter, tol):
    key = (eps, n_iter, tol)
    if key in _kam_cache:
        return _kam_cache[key]
    fp = D.golden_profile()
    if "sched" not in _kam_cache:
        _kam_cache["sched"] = NF.KamSchedule.build(SP_KAM, fp, s=0.5, n=2, i_max=8)
    kh = NF.kam_hamiltonian_from_mechanical(F_KAM, eps, OMEGA0_KAM, K=32)
    dfn = NF.mechanical_defect_fn(F_KAM, eps, OMEGA0_KAM, n_grid=48)
    res = NF.kam_iterate(kh, fp, SP_KAM, s=0.5, n_iter=n_iter,
                         schedule=_kam_cache["sched"], defect_fn=dfn, tol=tol)
    Ev = np.stack([e.eval(GRID_KAM) for e in res.embedding_theta], -1)
    Gv = np.stack([g.eval(GRID_KAM) for g in res.embedding_I], -1)
    dist = float(np.max(np.sum(np.abs(Ev), 1)
                        + np.sum(np.abs(Gv + (res.omega_star - OMEGA0_KAM)[None, :]), 1)))
    _kam_cache[key] = (res, dist)
    return _kam_cache[key]


def test_criterion_09a_kam_defect():
    t0 = time.time()
    res, _ = _kam_run(1e-4, 6, 1e-9)
    el = time.time() - t0
    early_ok = all(res.defects[i] / res.defects[i + 1] >= 10.0
                   for i in range(len(res.defects) - 1)
                   if res.defects[i] > 1e-9)
    ok = (res.converged and res.defects[-1] <= 1e-9
          and len(res.defects) <= 6 and early_ok and el < 300.0)
    assert _line("09a KAM defect", ok,
                 f"defects {['%.2e' % d for d in res.defects]} in "
                 f"{len(res.defects)} iters ({el:.0f}s)")


def _lindstedt_d1(f, omega0, grid):
    """max over grid of |E1|_1 + |A1|_1 for the first-order Lindstedt torus.

    At order eps the invariance equations of H = |I|^2/2 + eps f are solved
    mode by mode (k.omega0 != 0) by
        A1_k = -k f_k / (k.omega0),   E1_k = i k f_k / (2 pi (k.omega0)^2),
    so the torus theta -> (theta + eps E1, omega0 + eps A1) lies at distance
    eps D1 + O(eps^2) from the unperturbed one.  Plain numpy over f's
    coefficients: no KAM or flow routine is involved."""
    E1 = np.zeros(grid.shape, dtype=complex)
    A1 = np.zeros(grid.shape, dtype=complex)
    for k, _, _, fk in f.terms():
        k = np.asarray(k, dtype=float)
        kw = float(k @ omega0)
        phase = np.exp(2j * np.pi * (grid @ k))[:, None]
        E1 += phase * (1j * k * fk / (2.0 * np.pi * kw ** 2))
        A1 += phase * (-k * fk / kw)
    return float(np.max(np.sum(np.abs(E1.real), 1) + np.sum(np.abs(A1.real), 1)))


def test_criterion_09b_kam_embedding_slope():
    # sqrt(eps) is the theorem's upper bound; the family is analytic in eps,
    # so the measured slope tends to 1 and the first-order torus pins the
    # constant to O(eps) relative error.
    t0 = time.time()
    d1 = _lindstedt_d1(F_KAM, OMEGA0_KAM, GRID_KAM)
    dists, oracle_err, defect_ratio = {}, {}, {}
    for eps in [1e-3, 1e-4, 1e-5]:
        res, dist = _kam_run(eps, 2 if eps != 1e-4 else 6, 1e-13 if eps != 1e-4 else 1e-9)
        dists[eps] = dist
        oracle_err[eps] = abs(dist / (eps * d1) - 1.0)
        defect_ratio[eps] = res.defects[-1] / dist
    es = sorted(dists)
    slope = float(np.polyfit(np.log(es), np.log([dists[e] for e in es]), 1)[0])
    el = time.time() - t0
    ok = (slope >= 0.5 - 0.1
          and all(oracle_err[e] <= e for e in es)
          and all(defect_ratio[e] <= 1e-3 for e in es))
    assert _line("09b KAM embedding distance", ok,
                 f"slope {slope:.4f} >= 0.4; D1 {d1:.10f}, worst "
                 f"|dist/(eps D1) - 1| {max(oracle_err.values()):.2e}, worst "
                 f"err/eps {max(oracle_err[e] / e for e in es):.2e} <= 1; "
                 f"worst defect/dist {max(defect_ratio.values()):.2e} <= 1e-3 "
                 f"({el:.0f}s)"), \
        ("09b asserts slope >= 0.4 (sqrt(eps) bound), |dist/(eps D1) - 1| <= eps "
         "(first-order Lindstedt torus) and final defect <= 1e-3 dist")


def test_criterion_10_linear_diffusion():
    t0 = time.time()
    sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 14))
    fp = D.golden_profile()
    ok = True
    for j in range(3, 9):
        ex = INS.build_linear_diffusion(fp, j, s=1.0, sp=sp, n=3)
        ok &= INS.diffusion_sandwich(ex, fp, sp)["ok"]
    ex = INS.build_linear_diffusion(fp, 6, s=1.0, sp=sp, n=3)
    res = INS.run_linear_diffusion(ex, np.zeros(3), np.zeros(3),
                                   np.linspace(0.0, 1000.0, 11), dt=0.5)
    ok &= res["integrator_error"] <= 1e-8
    t1, t2 = 100.0, 900.0
    d1 = float(np.sum(np.abs(ex.closed_form(np.zeros(3), np.zeros(3), [t1])[1])))
    d2 = float(np.sum(np.abs(ex.closed_form(np.zeros(3), np.zeros(3), [t2])[1])))
    ok &= abs(d2 / d1 - t2 / t1) < 1e-12
    ok &= abs(d1 - t1 * ex.drift_rate()) < 1e-12 * d1
    el = time.time() - t0
    ok &= el < 30.0
    assert _line("10 linear diffusion", ok,
                 f"sandwich j in 3..8 ok, integrator err {res['integrator_error']:.2e}, "
                 f"drift exactly linear ({el:.1f}s)")


def test_criterion_11_marco_sauzin():
    t0 = time.time()
    ok = True
    details = []
    # psi_q^k identity to 1e-12 for q <= 100
    worst = 0.0
    for q in [3, 10, 50, 100]:
        psi = INS.shear_map_factory(q)
        x = (0.0, 0.0)
        for k in range(1, q + 1):
            x = psi(*x)
            worst = max(worst, abs(x[1] - k / q), abs(x[0] % 1.0))
    ok &= worst <= 1e-12
    details.append(f"psi drift {worst:.1e}")
    # exact-mode coupled drift to 1e-9 for q <= 100
    worst_d = 0.0
    for q in [12, 50, 100]:
        out = INS.run_coupled_drift(INS.coupled_map(q))
        worst_d = max(worst_d, out["drift_error"])
    ok &= worst_d <= 1e-9
    details.append(f"exact coupled {worst_d:.1e}")
    # pendulum mode within 1e-6 (n = 2 degenerate variant, B = 3)
    B = 3
    orbit = FL.pendulum_periodic_point(B)
    bv, bd = INS.smooth_bump()
    g2 = lambda th: bv(((th + 0.5) % 1.0) - 0.5)
    dg2 = lambda th: bd(((th + 0.5) % 1.0) - 0.5)
    pend = FL.pendulum_time1_map(1.0, rtol=1e-14)
    fac = INS.CoupledFactor(step=lambda th, I: pend(th, I),
                            point=(0.0, orbit.I_B), g=g2, dg=dg2)
    cm = INS.CoupledMap(q=B, factors=[fac])
    outp = INS.run_coupled_drift(cm)
    ok &= abs(outp["final"][1] - 1.0) <= 1e-6
    details.append(f"pendulum {abs(outp['final'][1]-1.0):.1e}")
    # eta_p synchronization to 1e-12 for p <= 31
    worst_eta = 0.0
    for p in range(2, 32):
        rep = INS.eta_lattice_identity(p)
        worst_eta = max(worst_eta, abs(rep["eta_at_0"] - 1.0),
                        rep["max_eta_lattice"], rep["max_deta_lattice"])
    ok &= worst_eta <= 1e-12
    details.append(f"eta {worst_eta:.1e}")
    # I_B in (2,3) monotone for B <= 30
    eps_prev = math.inf
    mono = True
    for B in range(3, 31):
        orb = FL.pendulum_periodic_point(B)
        mono &= 0.0 < orb.eps < 1.0 and orb.eps < eps_prev
        eps_prev = orb.eps
    ok &= mono
    details.append(f"I_B monotone {mono}")
    # certificate q^-1 cert(g) <= A^-2
    sp = W.ScaleProfile(W.build_sequence(W.gevrey(2), 1 << 14))
    msc = INS.build_ms(3, 2, s=0.05, sp=sp)
    cert_ok = msc.cert_g / msc.q <= 1.0 / msc.A ** 2
    ok &= cert_ok
    details.append(f"cert {cert_ok}")
    el = time.time() - t0
    ok &= el < 120.0
    assert _line("11 Marco-Sauzin", ok, "; ".join(details) + f" ({el:.1f}s)")


def test_criterion_12_bessi_certificates():
    t0 = time.time()
    sp = W.ScaleProfile(W.build_sequence(W.gevrey(4), 1 << 20))
    conv, x = D.liouville_convergents(
        sp, s0=1.0, n_steps=8, growth=INS.liouville_growth_for_bessi(sp, 1.0))
    fp = D.profile_from_prescribed(conv, omega_value=x)
    ex = INS.build_bessi(fp, sp, s0=1.0, s=0.5, eps=0.1, mu=0.5)
    certs_ok = all(c <= 4.0 * W.C_NORM * ex.eps for c in ex.certs)
    growth_ok = len(ex.growth) >= 2 and bool(np.all(np.diff(ex.growth) > 0))
    el = time.time() - t0
    ok = ex.candidates_found and certs_ok and growth_ok and el < 10.0
    assert _line("12 Bessi certificates", ok,
                 f"{len(ex.ks)} modes, certs <= 4c eps: {certs_ok}, "
                 f"growth increasing: {growth_ok} ({el:.1f}s)")
