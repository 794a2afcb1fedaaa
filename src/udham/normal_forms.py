"""Normal-form algorithms at truncation.

Every routine here runs finitely many exact-at-truncation steps and
*measures* its remainders with norm certificates; theorem-style smallness
thresholds are evaluated and logged but never block execution (the
implicit dimensional constants are 1, apart from the schedule constants A
and c2, which callers pass).  A step (`averaging_step`, `kam_step`) does
the algebra only; the loop that runs it forms each certificate once, where
it logs it.

Contents: the single resonant averaging step, the iterated periodic normal
form with the one-big-then-uniform width schedule, the multi-frequency
loop, the local rescaled normal form, the parameterized affine KAM step
and its geometric-schedule iteration, a steep-case normal-form chain, and
closed-form stability-time predictors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dioph
from .dioph import FrequencyProfile, PeriodicVector
from .flows import (AffineTransform, _grid_shift, _lie_series, affine_flow_lie,
                    apply_affine, compose_affine, jet_param_substitute)
from .series import (FTSeries, average_periodic, average_zero_mode, norm_upper,
                     poisson_bracket, solve_homological_periodic, sum_left_to_right)
from .errors import HorizonError, ParameterError
from .weights import ScaleProfile


def linear_integrable(v, n, K, D_I=1, n_w=0, D_w=0) -> FTSeries:
    """L_v(I) = v . I as a series."""
    out = FTSeries.zeros(n, K, D_I=D_I, D_w=D_w, n_w=n_w)
    for i, vi in enumerate(v):
        if vi != 0.0:
            e = tuple(1 if a == i else 0 for a in range(n))
            out.set_mode((0,) * n, float(vi), m=e)
    return out


def grad_cert(f: FTSeries, sp: ScaleProfile, s: float) -> float:
    """Certificate of the l1 action gradient."""
    total = 0.0
    for i in range(f.n):
        total += norm_upper(f.dI(i), sp, s).bound
    return total


@dataclass
class NFResult:
    """Outcome of a normal-form run."""

    generators: list            # Lie generators, innermost applied first
    resonant: FTSeries          # commutes with every declared resonance
    remainder: FTSeries
    hamiltonian: FTSeries       # full transformed Hamiltonian
    resonances: list            # PeriodicVectors the resonant part respects
    cert_before: float
    cert_after: float
    predicted_bound: Optional[float]
    final_width: float = 0.0
    schedule_log: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def commutation_defect(self) -> float:
        worst = 0.0
        n = self.resonant.n
        for pv in self.resonances:
            Lv = linear_integrable(pv.v, n, self.resonant.K, D_I=1,
                                   n_w=self.resonant.n_w, D_w=self.resonant.D_w)
            pb = poisson_bracket(self.resonant, Lv, K_out=self.resonant.K)
            worst = max(worst, pb.coeff_norm1())
        return worst


# ---------------------------------------------------------------------------
# periodic averaging
# ---------------------------------------------------------------------------

@dataclass
class PeriodicSplit:
    """H = L_v + S + G + F per the averaging lemma's bookkeeping.

    S integrable; {G, L_v} = 0; F the active remainder."""

    pv: PeriodicVector
    S: FTSeries
    G: FTSeries
    F: FTSeries

    @classmethod
    def from_hamiltonian(cls, H: FTSeries, pv: PeriodicVector) -> "PeriodicSplit":
        """Split a full Hamiltonian: integrable -> L_v + S, resonant
        nonintegrable -> G, rest -> F."""
        if len(pv.Tv) != H.n:
            raise ParameterError(f"periodic vector {pv.Tv} for a series in {H.n} angles")
        integ = average_zero_mode(H)
        Lv = linear_integrable(pv.v, H.n, H.K, D_I=max(H.D_I, 1),
                               n_w=H.n_w, D_w=H.D_w)
        S = integ - Lv
        rest = H - integ
        G = average_periodic(rest, pv)
        return cls(pv=pv, S=S, G=G, F=rest - G)


def averaging_step(split: PeriodicSplit):
    """One resonant averaging step.

    Solves {Y, L_v} = F - [F]_v; [F]_v joins G.  With Z = S + G + F,
    V = {Z, Y} and W = [F]_v - F + V = {H, Y}, the new remainder is
    F_new = V + sum_{r>=1} ad_Y^r W/(r+1)!, its tail measured against
    |H| ~ |Z| + |v|: neither L_v nor H is formed, so nothing cancels.
    Returns (new_split, Y); the step forms no certificate, its caller does.
    """
    pv = split.pv
    K_out = split.F.K
    D_I_out = max(split.F.D_I, 1)
    F_res = average_periodic(split.F, pv)
    Y = solve_homological_periodic(split.F, pv)
    Z = split.S + split.G + split.F
    V = poisson_bracket(Z, Y, K_out=K_out, D_I_out=D_I_out)
    F_new = _lie_series(Y, F_res - split.F + V, 1.0, 1, K_out=K_out,
                        D_I_out=D_I_out, start=V,
                        scale=Z.coeff_norm1() + float(np.sum(np.abs(pv.v))))
    return PeriodicSplit(pv=pv, S=split.S, G=split.G + F_res, F=F_new), Y


@dataclass
class NFSchedule:
    """Width schedule of the iterated periodic normal form.

    One big first loss sigma_1 = ln(xi)/24, then m-1 uniform losses
    sigma_m = ln(xi)/(24(m-1)); per-step remainder budgets nu_j = e^-j nu.
    """

    xi: float
    m: int
    sigma1: float
    sigma_m: float
    A: float
    nu_budgets: np.ndarray

    @property
    def kappa(self) -> float:
        return math.log(self.xi) / 24.0

    @classmethod
    def build(cls, xi: float, sp: ScaleProfile, s: float, T: float, eta: float,
              nu: float, A: float = 1.0) -> "NFSchedule":
        if not 1.0 < xi < math.inf:
            raise ParameterError("a finite xi > 1 required")
        kappa = math.log(xi) / 24.0
        y = s / (A * T * eta) if eta > 0 else math.inf
        ci = sp.cauchy_c_inv(max(y, 1.0)) if math.isfinite(y) else sp.sigma_bar
        m = max(1, min(400, int(math.ceil(kappa / ci))))
        sigma1 = kappa
        sigma_m = kappa / (m - 1) if m >= 2 else kappa
        budgets = nu * np.exp(-np.arange(1, m + 1, dtype=float))
        return cls(xi=xi, m=m, sigma1=sigma1, sigma_m=sigma_m, A=A,
                   nu_budgets=budgets)


def periodic_normal_form(H: FTSeries, pv: PeriodicVector, sp: ScaleProfile,
                         s: float, xi: float = 2.0, A: float = 1.0,
                         schedule: Optional[NFSchedule] = None) -> NFResult:
    """Iterated averaging along one periodic vector (Neishtadt schedule).

    The remainder after m steps is expected below
    nu exp(-kappa_xi / C^-1(s/(A T eta))); each step's measured certificate
    is compared with its budget nu_j = e^-j nu and violations are logged,
    never fatal.  Every certificate is formed here, once, in step order:
    step j reads nu_j (the remainder certificate of step j - 1, the same
    series at the same width), eta_j = |grad S| at s_j (eta itself when S
    is affine in I and has no parameter, so grad S is constant) and
    C(sigma_j), and logs its remainder certificate at s_j (1 - sigma_j)^3
    beside the second-order bound T nu_j (nu_j C^2/s_j^2 + eta_j C/s_j).
    """
    split = PeriodicSplit.from_hamiltonian(H, pv)
    nu0 = norm_upper(split.F, sp, s).bound
    eta = grad_cert(split.S, sp, s)
    if schedule is None:
        schedule = NFSchedule.build(xi, sp, s, pv.T, eta, nu0, A=A)
    kappa = schedule.kappa
    y = s / (schedule.A * pv.T * eta) if eta > 0 else math.inf
    warnings = []
    if nu0 * sp.cauchy_c(min(kappa, sp.sigma_bar)).value > s * eta:
        warnings.append("threshold nu <= C(kappa)^-1 s eta violated")
    if math.isfinite(y):
        if y < 1.0 or sp.cauchy_c_inv(max(y, 1.0)) > kappa:
            warnings.append("threshold C^-1(s/(A T eta)) <= kappa violated")

    # S = [H] - L_v holds k = 0 only and every step carries it unchanged;
    # with no monomial of |m| >= 2 or |w| >= 1, grad S is constant and its
    # certificate does not depend on the width
    affine = all(sum(m) <= 1 and not any(w) for m, w in split.S.keys)
    cur, s_j, nu, eta_j = split, s, nu0, eta
    log = []
    for j in range(1, schedule.m + 1):
        sigma = schedule.sigma1 if j == 1 else schedule.sigma_m
        if j > 1 and not affine:
            eta_j = grad_cert(cur.S, sp, s_j)
        Csig = sp.cauchy_c(sigma).value
        if Csig ** 2 * pv.T * nu > s_j ** 2:
            warnings.append(f"smallness C(sigma)^2 T nu = {Csig**2*pv.T*nu:.3e} "
                            f"exceeds s^2 = {s_j**2:.3e}")
        bound = pv.T * nu * (nu * Csig ** 2 / s_j ** 2 + eta_j * Csig / s_j)
        cur, Yj = averaging_step(cur)
        s_j = s_j * (1.0 - sigma) ** 3
        nu = norm_upper(cur.F, sp, s_j).bound
        log.append({"step": j, "sigma": sigma, "width": s_j, "remainder_cert": nu,
                    "second_order_bound": bound,
                    "budget": float(schedule.nu_budgets[j - 1]),
                    "within_budget": bool(nu <= schedule.nu_budgets[j - 1]),
                    "generator": Yj})
    predicted = None
    if math.isfinite(y) and y >= 1.0:
        predicted = nu0 * math.exp(-kappa / sp.cauchy_c_inv(y))
    # the residual resonant content of the final hat-F belongs to the
    # resonant side (one more exact projection, free)
    F_res = average_periodic(cur.F, pv)
    G_fin = cur.G + F_res
    F_fin = (cur.F - F_res).prune()
    resonant = (average_zero_mode(H) + G_fin).prune()   # L_v + S + G_fin
    return NFResult(generators=[entry["generator"] for entry in log],
                    resonant=resonant, remainder=F_fin,
                    hamiltonian=resonant + F_fin, resonances=[pv],
                    cert_before=nu0,
                    cert_after=norm_upper(F_fin, sp, s_j).bound,
                    predicted_bound=predicted, final_width=s_j,
                    schedule_log=log, warnings=warnings)


def _normal_form_chain(H: FTSeries, stages: list, order: list, sp: ScaleProfile,
                       s: float, xi: float, log_steps: bool) -> NFResult:
    """`periodic_normal_form` over ``order``, a list of (label,
    PeriodicVector); the resonant part is then averaged along every stage."""
    cur = H
    gens, logs, warns = [], [], []
    cert0 = None
    s_j = s
    for label, pv in order:
        res = periodic_normal_form(cur, pv, sp, s_j, xi=xi)
        if cert0 is None:
            cert0 = res.cert_before
        gens.extend(res.generators)
        entry = {"stage": label, "pv": pv.Tv, "remainder_cert": res.cert_after}
        if log_steps:
            entry["steps"] = len(res.schedule_log)
        logs.append(entry)
        warns.extend(res.warnings)
        cur = res.hamiltonian
        s_j = res.final_width
    resonant = cur
    for pv in stages:
        resonant = average_periodic(resonant, pv)
    remainder = cur - resonant
    return NFResult(generators=gens, resonant=resonant, remainder=remainder,
                    hamiltonian=cur, resonances=list(stages), cert_before=cert0,
                    cert_after=norm_upper(remainder, sp, s_j).bound,
                    predicted_bound=None, final_width=s_j,
                    schedule_log=logs, warnings=warns)


def multifrequency_normal_form(H: FTSeries, basis: list, sp: ScaleProfile,
                               s: float) -> NFResult:
    """Loop the periodic normal form over a basis with xi = 2^(1/d).

    The final resonant part commutes with every L_{v_j}; for a full
    unimodular basis that forces it to the zero-mode projection.
    """
    return _normal_form_chain(H, basis, list(enumerate(basis)), sp, s,
                              xi=2.0 ** (1.0 / len(basis)), log_steps=True)


# ---------------------------------------------------------------------------
# local normal form around an action point
# ---------------------------------------------------------------------------

def translate_actions(H: FTSeries, I1) -> FTSeries:
    """H(theta, I + I1): binomial shift of the action exponents."""
    I1 = np.asarray(I1, dtype=float)

    def rule(m, w):
        for sub in itertools.product(*(range(mi + 1) for mi in m)):
            coef = 1.0
            for i, (mi, ji) in enumerate(zip(m, sub)):
                coef *= math.comb(mi, ji) * I1[i] ** (mi - ji)
            if coef != 0.0:
                yield (sub, w), coef

    return H.map_monomials(rule).prune()


def scale_actions(H: FTSeries, rho: float) -> FTSeries:
    """H(theta, rho I) / rho: per-block scaling."""
    fac_all = 1.0 / rho
    return H.map_monomials(lambda m, w: [((m, w), (rho ** sum(m)) * fac_all)])


def local_normal_form(h: FTSeries, f: FTSeries, I1, rho: float,
                      pv: PeriodicVector, sp: ScaleProfile, s: float) -> dict:
    """Normal form near I1 with |grad h(I1) - v| small.

    Translate by I1, rescale actions by rho, expand the integrable part to
    second order implicitly (the series is already polynomial), and run the
    periodic normal form with xi = 2 at width s/2; everything is reported in
    rescaled coordinates together with the scale-back data.
    """
    H = h + f
    Ht = translate_actions(H, I1)
    Hr = scale_actions(Ht, rho)
    # drop the constant term (irrelevant energy offset)
    if ((0,) * Hr.n, (0,) * Hr.n_w) in Hr.blocks:
        Hr.set_mode((0,) * Hr.n, 0.0)
    res = periodic_normal_form(Hr, pv, sp, s / 2.0, xi=2.0)
    grad_h = np.array([h.dI(i).eval(np.zeros((1, h.n)), I=np.asarray(I1))[0]
                       for i in range(h.n)])
    res.warnings.append(
        f"|grad h(I1) - v| = {float(np.sum(np.abs(grad_h - np.asarray(pv.v)))):.3e}")
    return {"result": res, "I1": np.asarray(I1, dtype=float), "rho": rho,
            "grad_h": grad_h}


# ---------------------------------------------------------------------------
# KAM step and iteration (parameterized affine Hamiltonians)
# ---------------------------------------------------------------------------

@dataclass
class KamHamiltonian:
    """H = e(w) + w.I + A(theta,w) + B(theta,w).I + R(theta,I,w).

    Stored as one series over (theta, I, w = omega - omega_0) with jet
    degree D_w = 1; the block split is by inspection (k = 0 modes of the
    |m| <= 1 blocks are the normal form N)."""

    H: FTSeries
    omega0: np.ndarray

    @property
    def n(self):
        return len(self.omega0)

    def parts(self):
        H, n = self.H, self.n
        zero = (0,) * n
        units = [tuple(int(x == i) for x in range(n)) for i in range(n)]

        def oscillating(m0):
            # the coefficient of I^m0 as an angle series, zero mode removed
            p = H.map_monomials(lambda m, w: [((zero, w), 1.0)] if m == m0 else [],
                                D_I=0)
            return (p - average_zero_mode(p)).prune()

        e0 = H.get_mode(zero).real
        e1 = np.array([H.get_mode(zero, w=u).real for u in units])
        # zero modes of the m = e_i blocks: constant and w-linear columns
        omega_dev = np.array([[H.get_mode(zero, m=ui, w=w).real for w in [zero] + units]
                              for ui in units])
        return {"e0": e0, "e1": e1, "A": oscillating(zero),
                "B": [oscillating(u) for u in units], "omega_diag": omega_dev}

    def certs(self, sp: ScaleProfile, s: float):
        """The certificates |A| and |B| = sum_i |B_i| at width s."""
        p = self.parts()
        return {"A": norm_upper(p["A"], sp, s).bound,
                "B": sum_left_to_right(norm_upper(b, sp, s).bound for b in p["B"])}


def kam_hamiltonian_from_mechanical(f: FTSeries, eps: float, omega0,
                                    K: int) -> KamHamiltonian:
    """Parameterize H = |I|^2/2 + eps f(theta) around omega = grad h.

    With I = omega + J:  H = e(omega) + omega.J + |J|^2/2 + eps f, where
    e(omega) = |omega|^2/2 enters only through its jet (degree <= 1 here;
    e never drives the dynamics)."""
    if f.K > K:
        raise ParameterError(f"perturbation bandwidth {f.K} exceeds K = {K}")
    omega0 = np.asarray(omega0, dtype=float)
    n = len(omega0)
    H = FTSeries.zeros(n, K, D_I=2, D_w=1, n_w=n)
    zero = (0,) * n
    units = [tuple(1 if x == i else 0 for x in range(n)) for i in range(n)]
    H.set_mode(zero, 0.5 * float(omega0 @ omega0))
    for a in range(n):
        H.set_mode(zero, omega0[a], w=units[a])
    for i, ei in enumerate(units):
        H.set_mode(zero, omega0[i], m=ei)
        H.set_mode(zero, 1.0, m=ei, w=ei)
        H.set_mode(zero, 0.5, m=tuple(2 * x for x in ei))
    lifted = f.map_monomials(lambda m, w: [((m, zero), eps)], n_w=n, D_w=1)
    return KamHamiltonian(H=H + lifted, omega0=omega0)


def kam_step(kh: KamHamiltonian, fp: FrequencyProfile, Q: float):
    """One affine KAM step: n successive rational averagings + counterterm.

    Averages along the rational basis of ``dioph.zbasis_approx(fp, Q)`` and
    solves the frequency map phi exactly at jet level.  Returns the
    pulled-back Hamiltonian, the composed transform (E, A) and the jet
    (phi_shift, phi_matrix) of phi; the step forms no certificate."""
    n = kh.n
    H = kh.H
    K = H.K
    Hc = H
    tr_total = None
    for pv in dioph.zbasis_approx(fp, Q).vectors:
        p_cur = KamHamiltonian(H=Hc, omega0=kh.omega0).parts()
        Cj = solve_homological_periodic(p_cur["A"], pv)
        Dj = [solve_homological_periodic(b, pv) for b in p_cur["B"]]
        tr = affine_flow_lie(Cj, Dj, t=1.0, K_out=K)
        Hc, = apply_affine([Hc], tr, K_out=K)
        tr_total = tr if tr_total is None else compose_affine(tr_total, tr, K_out=K)

    # frequency counterterm: zero modes of the m = e_i blocks define
    # b(w) = w + [B](w); solve b(phi(w)) = w exactly at jet degree 1
    pm = KamHamiltonian(H=Hc, omega0=kh.omega0).parts()
    od = pm["omega_diag"]
    b0 = od[:, 0] - kh.omega0          # [B] constant part
    B1 = od[:, 1:] - np.eye(n)         # [B] linear part
    M1 = np.eye(n) + B1
    phi_matrix = np.linalg.solve(M1, np.eye(n))
    phi_shift = -phi_matrix @ b0       # phi_0 - omega_0
    Hn = jet_param_substitute(Hc, phi_shift, phi_matrix)
    return KamHamiltonian(H=Hn.prune(), omega0=kh.omega0), tr_total, phi_shift, phi_matrix


@dataclass
class KamSchedule:
    """The iteration's cut-offs and width losses: the first i_max + 1 terms
    Q_i = Delta*(2^i Delta(Q0)) and sigma_i = C^-1(c2 s Q_i) of
    `dioph.br_test`'s sequence at its Q0, the test's width budget, and
    product_lower = prod_i (1 - sigma_i)^(2n+1)."""

    Q0: float
    sigmas: np.ndarray
    Qs: np.ndarray
    budget: float
    product_lower: float

    @classmethod
    def build(cls, sp: ScaleProfile, fp: FrequencyProfile, s: float, n: int,
              c2: float = 1.0, i_max: int = 12) -> "KamSchedule":
        rep = dioph.br_test(sp, fp, s=s, n=n, i_max=max(i_max, 20), c2=c2)
        if rep.verdict != "ConvergedWithinBudget":
            raise HorizonError(f"no admissible Q0: {rep.verdict}")
        # the schedule is the first i_max + 1 terms of the test's sequence at Q0
        Qs, sigmas = rep.Q_list[: i_max + 1], rep.sigmas[: i_max + 1]
        prod = float(np.exp((2 * n + 1) * np.sum(np.log1p(-sigmas))))
        return cls(Q0=rep.Q0, sigmas=sigmas, Qs=Qs, budget=rep.budget,
                   product_lower=prod)


@dataclass
class KamIterateResult:
    transform: AffineTransform
    omega_star: np.ndarray
    defects: list
    cert_log: list
    embedding_theta: list   # series: theta + E*(theta) at omega_0
    embedding_I: list       # series: G*(theta) (+ action offset by caller)
    converged: bool


def _embedding(tr: AffineTransform):
    """E* and G* at omega_0: the w-free parts of E and of A's I^0 part."""
    n, n_w = tr.n, tr.E[0].n_w
    base = ((0,) * n, (0,) * n_w)
    part = lambda f: f.map_monomials(lambda m, w: [((m, w), 1.0)] if (m, w) == base else [],
                                     D_I=0, D_w=0)
    return [part(e) for e in tr.E], [part(a) for a in tr.A]


def kam_iterate(kh: KamHamiltonian, fp: FrequencyProfile, sp: ScaleProfile,
                s: float, schedule: KamSchedule, n_iter: int = 6, defect_fn=None,
                tol: float = 1e-9) -> KamIterateResult:
    """Iterate the KAM step with the geometric schedules.

    The transforms accumulate by the groupoid composition (outer jets pulled
    through each step's frequency map); the invariance defect is measured by
    the caller-supplied defect_fn(E*, G*, omega_star) each iteration."""
    n = kh.n
    tr_total = None
    phi0_total = kh.omega0.copy()
    phi1_total = np.eye(n)
    cur = kh
    defects = []
    certs = []
    converged = False
    for i in range(n_iter):
        Q_i, sig_i = float(schedule.Qs[i]), float(schedule.sigmas[i])
        cur, tr_i, phi_shift, phi_matrix = kam_step(cur, fp, Q_i)
        if tr_total is None:
            tr_total = tr_i
        else:
            tr_total = compose_affine(tr_total, tr_i, K_out=kh.H.K,
                                      phi_shift=phi_shift, phi_matrix=phi_matrix)
        # phi* = phi^i o phi_{i+1}
        phi0_total = phi0_total + phi1_total @ phi_shift
        phi1_total = phi1_total @ phi_matrix
        certs.append({"iter": i, "Q": Q_i, "sigma": sig_i, **cur.certs(sp, s)})
        if defect_fn is not None:
            d = defect_fn(*_embedding(tr_total), phi0_total)
            defects.append(d)
            if d <= tol:
                converged = True
                break
    E0, G0 = _embedding(tr_total)
    return KamIterateResult(transform=tr_total, omega_star=phi0_total,
                            defects=defects, cert_log=certs,
                            embedding_theta=E0, embedding_I=G0,
                            converged=converged)


def mechanical_defect_fn(f: FTSeries, eps: float, omega0, n_grid: int = 64):
    """Invariance defect for H = |I|^2/2 + eps f(theta).

    The embedding is Theta(theta) = (theta + E*(theta), omega* + G*(theta));
    the defect is max over the uniform n_grid^n grid of
        |(Id + dE*) omega_0 - (omega* + G*)|  and  |dG* omega_0 + eps grad f|,
    E*, G* and dE*, dG* from `derivative_grid`, grad f at theta + E* by `eval`."""
    omega0 = np.asarray(omega0, dtype=float)
    n = len(omega0)
    axes = [np.arange(n_grid) / n_grid] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    gradf = f.grad_theta()
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]

    def values(series, alpha=None):
        return np.stack([_grid_shift(s, n_grid, alpha) for s in series], axis=-1)

    def defect(E0, G0, omega_star):
        Ev, Gv = values(E0), values(G0)
        dE = np.stack([values(E0, u) for u in units], axis=-1)   # [p, i, j] = d_j E_i
        dG = np.stack([values(G0, u) for u in units], axis=-1)
        pts = grid + Ev
        gf = np.stack([g.eval(pts) for g in gradf], axis=-1)
        d_theta = (omega0[None, :] + np.einsum("pij,j->pi", dE, omega0)
                   - (omega_star[None, :] + Gv))
        d_I = np.einsum("pij,j->pi", dG, omega0) + eps * gf
        return float(max(np.max(np.abs(d_theta)), np.max(np.abs(d_I))))

    return defect


# ---------------------------------------------------------------------------
# steep-case chain and dichotomy probe
# ---------------------------------------------------------------------------

def nekhoroshev_chain(H: FTSeries, stages: list, sp: ScaleProfile, s: float) -> NFResult:
    """Chain periodic normal forms over stage vectors v_j, ..., v_1.

    stages: list of PeriodicVector, processed last-to-first per the
    induction (each later stage preserves the commutations already won,
    because averaging preserves commutation with integrable invariants).
    The final resonant part commutes with every stage vector.
    """
    order = [(len(stages) - i, pv) for i, pv in enumerate(reversed(stages))]
    return _normal_form_chain(H, stages, order, sp, s, xi=2.0, log_steps=False)


def steep_exponents(n: int, p: float):
    """a_j = (np)^(n-j) and the Q_j = eps^(-1/(2 n a_j)) exponent ladder."""
    return [float((n * p) ** (n - j)) for j in range(1, n + 1)]


def dichotomy_probe(traj_actions: np.ndarray, Lambda_perp_basis: np.ndarray,
                    rho: float) -> dict:
    """Exit-time vs transverse-drift probe for a normal-form orbit.

    Given sampled actions and an orthonormal basis of Lambda_j^perp,
    reports the first exit index from the rho/2 ball and the max drift of
    the Lambda^perp projection up to that time."""
    dI = traj_actions - traj_actions[0]
    norms = np.sum(np.abs(dI), axis=1)
    exits = np.flatnonzero(norms >= rho / 2.0)
    i_exit = int(exits[0]) if len(exits) else len(norms) - 1
    proj = dI[: i_exit + 1] @ Lambda_perp_basis.T
    return {"exit_index": i_exit, "exited": bool(len(exits)),
            "max_perp_drift": float(np.max(np.abs(proj))) if proj.size else 0.0}


def almost_plane_curve_probe(h: FTSeries, curve_pts: np.ndarray,
                             Lambda_basis: np.ndarray, rho: float, L: float,
                             p: float) -> dict:
    """max over the polygonal curve of |Pi_Lambda grad h| vs L rho^p."""
    n = h.n
    grads = [h.dI(i) for i in range(n)]
    worst = 0.0
    for I in curve_pts:
        g = np.array([gi.eval(np.zeros((1, n)), I=I)[0] for gi in grads])
        worst = max(worst, float(np.sum(np.abs(Lambda_basis @ g))))
    return {"max_proj_grad": worst, "bound": L * rho ** p,
            "steep_witnessed": worst > L * rho ** p}


# ---------------------------------------------------------------------------
# stability-time predictors
# ---------------------------------------------------------------------------

def stability_time_predict(regime: str, sp: ScaleProfile,
                           fp: Optional[FrequencyProfile], s: float,
                           eps: float, n: int, rho: Optional[float] = None,
                           p: float = 2.0) -> dict:
    """Evaluate the radius/time formulas of the four stability regimes.

    Every dimensional constant of the formulas is 1, so the returned numbers
    are shapes to compare across parameters, not certified bounds."""
    out = {"regime": regime, "eps": eps, "s": s, "n": n}
    if regime == "linear":
        if fp is None:
            raise ParameterError("linear regime needs a frequency profile")
        Q = fp.delta_star(s / eps)
        out["Q"] = Q
        rr = min(2 * fp.psi_envelope(Q) * eps, 0.25)
        out["radius"] = 2.0 * rr
        out["time"] = rr * s / eps * math.exp(1.0 / sp.cauchy_c_inv(max(s * Q, 1.0)))
    elif regime == "nonlinear-local":
        if fp is None or rho is None:
            raise ParameterError("nonlinear-local regime needs fp and rho")
        Q = fp.delta_star(s / rho)
        rr = rho / 4.0
        out["Q"] = Q
        out["radius"] = 2.0 * rr
        out["time"] = rr * s / eps * math.exp(1.0 / sp.cauchy_c_inv(max(s * Q, 1.0)))
    elif regime == "quasiconvex":
        out["radius"] = s * (eps / s ** 2) ** (1.0 / (2 * n))
        y = s * (s ** 2 / eps) ** (1.0 / (2 * n))
        out["time"] = s * math.exp(1.0 / sp.cauchy_c_inv(max(y, 1.0)))
    elif regime == "steep":
        a = (n * p) ** (n - 1)
        out["a"] = a
        out["radius"] = eps ** (1.0 / (2 * n * a))
        y = s * eps ** (-1.0 / (2 * n * a))
        out["time"] = s * math.exp(1.0 / sp.cauchy_c_inv(max(y, 1.0)))
    else:
        raise ParameterError(f"unknown regime {regime!r}")
    return out
