"""Explicit instability constructions with certificates.

Three mechanisms, in increasing sophistication:

* linear diffusion: for h = L_omega with a resonant split, the single-mode
  Hamiltonians built on continued-fraction convergents have closed-form
  drifting orbits whose speed is pinned between the two growth-function
  envelopes;
* the coupled-map drift machine: a shear map on one annulus factor is
  synchronized to a periodic orbit of the remaining factors through a
  generator vanishing to first order along the orbit, so the q-th iterate
  of the product map reproduces the shear exactly;
* single-resonance pairs on exponentially Liouville frequencies whose
  perturbation norm stays below 4 c eps while the two-scale gap grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dioph, flows
from .dioph import FrequencyProfile
from .flows import VARTHETA, PendulumOrbit
from .series import sum_left_to_right
from .errors import HorizonError, ParameterError
from .weights import C_NORM, ScaleProfile

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# linear diffusion (single resonant mode on a convergent)
# ---------------------------------------------------------------------------

@dataclass
class DiffusionExample:
    """H_j = v_j . I + eps_j mu_j sin(2 pi k_j . theta) with k_j . v_j = 0."""

    omega: np.ndarray
    j: int
    p: int
    q: int
    k: np.ndarray            # (p, -q, 0, ...)
    v: np.ndarray            # (1, p/q, bar-omega_2.., 0)
    eps_j: float
    mu_j: float
    s: float
    k_norm: int

    def drift_rate(self) -> float:
        """|dI/dt|_1 on the resonant crest: eps_j exp(-Omega(8 pi |k| s))."""
        return TWO_PI * self.k_norm * self.eps_j * self.mu_j

    def closed_form(self, theta0, I0, t):
        theta0 = np.asarray(theta0, dtype=float)
        I0 = np.asarray(I0, dtype=float)
        phase = math.cos(TWO_PI * float(self.k @ theta0))
        theta = theta0[None, :] + np.outer(np.asarray(t, dtype=float), self.v)
        I = I0[None, :] - np.outer(np.asarray(t, dtype=float),
                                   TWO_PI * self.k * self.eps_j * self.mu_j * phase)
        return theta, I


def build_linear_diffusion(fp: FrequencyProfile, j: int, s: float,
                           sp: ScaleProfile, n: Optional[int] = None) -> DiffusionExample:
    """Single-resonance Hamiltonian on the j-th convergent of omega_bar.

    k_j = (p_j, -q_j, 0...) is exactly orthogonal to
    v_j = (1, p_j/q_j, 0...); eps_j = |bar-omega - p_j/q_j| sits in the
    sandwich [1/(2 Delta(q_j)), 2/Delta(q_j)] and mu_j normalizes the
    angular gradient to eps_j exp(-Omega(8 pi |k_j| s))."""
    p, q, e = fp.convergent(j)
    n = n if n is not None else len(fp.omega) + 1
    if n < 3:
        raise ParameterError("needs at least one resonant dimension (d < n)")
    if e is None:
        raise ParameterError("terminal convergent has no residual")
    omega = np.concatenate([fp.omega[:2], np.zeros(n - 2)])
    k = np.zeros(n)
    k[0], k[1] = p, -q
    v = omega.copy()
    v[1] = p / q
    eps_j = abs(e) / q
    k_norm = abs(p) + abs(q)
    mu_j = math.exp(-sp.omega_value(8.0 * math.pi * k_norm * s)) / (TWO_PI * k_norm)
    ex = DiffusionExample(omega=omega, j=j, p=p, q=q, k=k, v=v, eps_j=eps_j,
                          mu_j=mu_j, s=s, k_norm=k_norm)
    # k . v = p - q(p/q): zero in the rational arithmetic, float residual
    # only from the stored v; the epsilon sandwich is exact in the |k|_inf
    # convention (the l1 staircase reaches the same convergent one index
    # later, which only moves the constants)
    if abs(float(k @ v)) > 1e-12 * k_norm:
        raise ParameterError("resonance k . v = 0 lost in representation")
    fpi = dioph.profile_linf(fp)
    log_delta = fpi.log_delta(max(abs(p), q))
    if not (-math.log(2.0) - 1e-9 <= math.log(eps_j) + log_delta
            <= math.log(2.0) + 1e-9):
        raise ParameterError("epsilon sandwich against Delta(q_j) violated")
    if abs(p) <= q:
        if not (q <= k_norm <= 2 * q):
            raise ParameterError("|k| bracket q <= |k| <= 2q violated")
    else:
        # |omega_bar| > 1: |p| <= |omega_bar| q + 1/2, so the classical
        # factor 2 generalizes to 1 + |omega_bar| (constants only)
        if not (q <= k_norm <= (1.0 + abs(omega[1])) * q + 1.0):
            raise ParameterError("generalized |k| bracket violated")
    return ex


def run_linear_diffusion(ex: DiffusionExample, theta0, I0, t_grid,
                         dt: float = 0.25):
    """Closed form vs implicit-midpoint integration, plus the drift value.

    Requires the initial phase on the resonance crest (k . theta0 integer);
    then the action drifts exactly linearly at rate eps_j e^{-Omega(8 pi
    |k_j| s)} in l1."""
    theta0 = np.asarray(theta0, dtype=float)
    I0 = np.asarray(I0, dtype=float)
    phase = float(ex.k @ theta0)
    if abs(phase - round(phase)) > 1e-12:
        raise ParameterError("initial phase must sit on the resonance crest")
    t_grid = np.asarray(t_grid, dtype=float)
    th_cf, I_cf = ex.closed_form(theta0, I0, t_grid)

    amp = ex.eps_j * ex.mu_j

    def grad_theta(th, I):
        return TWO_PI * ex.k * amp * math.cos(TWO_PI * float(ex.k @ th))

    def grad_I(th, I):
        return ex.v

    traj = flows.integrate_midpoint(grad_theta, grad_I, theta0, I0,
                                    t_end=float(t_grid[-1]), dt=dt,
                                    sample_every=max(1, int(round(t_grid[-1] / dt / 64))))
    # compare at the trajectory's own sample times
    th_ref, I_ref = ex.closed_form(theta0, I0, traj.times)
    err = float(np.max(np.abs(traj.actions - I_ref)))
    drift = np.sum(np.abs(I_cf - I0[None, :]), axis=1)
    return {"t": t_grid, "closed_theta": th_cf, "closed_I": I_cf,
            "integrator_error": err, "drift_l1": drift,
            "rate": ex.drift_rate()}


def diffusion_sandwich(ex: DiffusionExample, fp: FrequencyProfile,
                       sp: ScaleProfile) -> dict:
    """Drift-rate sandwich of the instability theorem:

        eps exp(-Omega(16 pi s Delta*(2/eps))) <= rate
            <= eps exp(-Omega(8 pi s Delta*(1/(2 eps)))),

    with Delta* taken on the |k|_inf staircase where the convergent
    brackets are exact."""
    fpi = dioph.profile_linf(fp)
    rate = ex.drift_rate()
    lo_q = fpi.delta_star(2.0 / ex.eps_j)
    hi_q = fpi.delta_star(1.0 / (2.0 * ex.eps_j))
    lo = ex.eps_j * math.exp(-sp.omega_value(16.0 * math.pi * ex.s * lo_q))
    hi = ex.eps_j * math.exp(-sp.omega_value(8.0 * math.pi * ex.s * hi_q))
    return {"rate": rate, "lower": lo, "upper": hi,
            "ok": lo * (1 - 1e-12) <= rate <= hi * (1 + 1e-12)}


# ---------------------------------------------------------------------------
# coupled-map drift machine
# ---------------------------------------------------------------------------

def shear_map_factory(q: int):
    """psi_q(theta, I) = (theta + q I, I - q^-1 U'(theta + q I)) with
    U = -(2 pi)^-1 sin(2 pi theta); psi_q^k(0,0) = (0, k/q)."""

    def psi(theta, I):
        th = theta + q * I
        return th, I + math.cos(TWO_PI * th) / q

    return psi


@dataclass
class CoupledFactor:
    """One annulus factor of the product map G."""

    step: Callable          # (theta, I) -> (theta, I), one time-1 application
    point: tuple            # component of the synchronized point a
    g: Callable             # g_factor(theta) and derivative
    dg: Callable


def _coupling(factors, thetas):
    """g = prod_i g_i(theta_i) and its partials dg_i(theta_i) prod_{l != i}
    g_l(theta_l), each product taken left to right over the factors."""
    vals = [f.g(th) for f, th in zip(factors, thetas)]
    g = 1.0
    for v in vals:
        g *= v
    partials = []
    for i, (f, th) in enumerate(zip(factors, thetas)):
        d = f.dg(th)
        for l, v in enumerate(vals):
            if l != i:
                d *= v
        partials.append(d)
    return g, partials


def _l1(xs):
    return sum_left_to_right(abs(x) for x in xs)


@dataclass
class MSConstruction:
    """Synchronized data (g_j, G_j, a_j, q_j) of the coupled-map machine."""

    n: int
    j: int
    rotators: list                 # the rotator primes p_{j-n+3} .. p_j
    A_prime: int
    A: int
    B: int
    q: int
    s: float
    orbit: PendulumOrbit
    factors: list                  # CoupledFactor per theta_2..theta_n
    cert_g: float
    cert_budget: float             # A^-2 * q target
    log: dict = field(default_factory=dict)

    @property
    def a_point(self):
        return tuple(f.point for f in self.factors)


def _primes(count):
    out = []
    cand = 2
    while len(out) < count:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


def eta_p(p: int):
    """eta_p(x) = ((1/p) sum_{l<p} cos(2 pi l x))^2: equals 1 at 0 and
    vanishes to first order at every other p-th root of unity."""

    def val(x):
        ls = np.arange(p)
        return float(np.sum(np.cos(TWO_PI * ls * x)) / p) ** 2

    def dval(x):
        ls = np.arange(p)
        s0 = float(np.sum(np.cos(TWO_PI * ls * x)) / p)
        s1 = float(np.sum(-TWO_PI * ls * np.sin(TWO_PI * ls * x)) / p)
        return 2.0 * s0 * s1

    return val, dval


def smooth_bump():
    """exp-profile bump: 1 at 0, derivative 0 at 0, support (-vartheta, vartheta)."""
    w = VARTHETA

    def val(x):
        x = ((x + 0.5) % 1.0) - 0.5
        u = (x / w) ** 2
        if u >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u))

    def dval(x):
        x = ((x + 0.5) % 1.0) - 0.5
        u = (x / w) ** 2
        if u >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u)) * (-2.0 * x / w ** 2) / (1.0 - u) ** 2

    return val, dval


def bump_norm_certificate(sp: ScaleProfile, s: float) -> float:
    """Finite-order certificate of the bump in the (M, s) norm.

    The exp-profile bump is smooth but need not belong to every M-class;
    non-quasi-analytic classes do contain true class bumps, but no
    constructive normalization is available, so membership is certified
    numerically up to 24 derivatives by spectral differentiation on 4096
    points (conditioning degrades beyond ~24)."""
    val, _ = smooth_bump()
    n_grid = 4096
    xs = np.arange(n_grid) / n_grid
    v = np.array([val(x) for x in xs])
    coef = np.fft.fft(v) / n_grid
    kfreq = np.fft.fftfreq(n_grid, d=1.0 / n_grid)
    worst = 0.0
    for l in range(25):
        dcoef = coef * (TWO_PI * 1j * kfreq) ** l
        sup = float(np.max(np.abs(np.fft.ifft(dcoef) * n_grid)))
        term = C_NORM * (l + 1) ** 2 * s ** l * sup / math.exp(sp.ws.log_M[l])
        worst = max(worst, term)
    return worst


MS_S_PRIME_FACTOR = 2.0     # the formula width s' = 2 s
MS_MAX_RETRIES = 40         # doublings of B before the certificate is given up


def build_ms(n: int, j: int, s: float, sp: ScaleProfile) -> MSConstruction:
    """Construct the synchronized coupling data (g_j, G_j, a_j, q_j).

    A_j = p_j A_j' with A_j' = p_{j-n+3} ... p_j, the n-2 rotator primes
    up to and including p_j (A_j' = 1 at n = 2).  The formula value
    B = 2 ceil(c1 c^(2(n-1)) A_j exp(E_j) + 1) is logged under the proof's
    exponent E_j = 2(n-1) Omega(s' p_j) and the statement's 2 Omega(s' p_j);
    the operative B is floored by the proof's value and by A_j * cert(g_j)
    measured from the actual certificate chain, since the abstract s'
    hides the mode weights and the time-parametrization constant.  If the
    certificate still violates q^-1 |g|_s <= A^-2 the inflation loop
    doubles B and retries.
    """
    if n < 2:
        raise ParameterError("n >= 2 required")
    if j < n - 3:
        raise ParameterError("j too small for the prime schedule at this n")
    primes = _primes(j + 1)
    p_j = primes[j]
    rotators = primes[j - n + 3:]
    A_prime = math.prod(rotators)
    A = p_j * A_prime
    sprime = MS_S_PRIME_FACTOR * s
    c1 = bump_norm_certificate(sp, s)
    om_sp = sp.omega_value(sprime * p_j)
    B_formula = {mode: 2 * (int(math.ceil(
        c1 * C_NORM ** (2 * (n - 1)) * A * math.exp(min(factor * om_sp, 700.0)))) + 1)
        for mode, factor in (("proof", 2 * (n - 1)), ("statement", 2))}
    om_eta = sp.omega_value(8.0 * math.pi * p_j * min(s, 0.01))

    def g_cert(tau_cert):
        # certificate chain: |g|_s <= c1 * |eta o tau|_s * prod |eta_i|_s
        cert = c1 * ((C_NORM * math.exp(om_eta)) ** 2 * max(tau_cert, 1.0))
        for pi in rotators:
            cert *= (C_NORM * math.exp(sp.omega_value(8.0 * math.pi * pi * s))) ** 2
        return cert

    # the abstract s' hides the mode weights and the tau-composition
    # constant; the operative B comes from the measured certificate
    # (B >= A |g|_s makes q^-1|g| <= A^-2), floored by the formula value
    cert0 = g_cert(flows.tau_norm_certificate(flows.pendulum_periodic_point(1000),
                                              sp, s=min(s, 0.01)))
    B = max(B_formula["proof"], 2 * (int(math.ceil(A * cert0 / 2.0)) + 1))

    bump_v, bump_d = smooth_bump()
    eta_j_v, eta_j_d = eta_p(p_j)
    pend_step = flows.pendulum_time1_map(A, rtol=1e-13)
    rotator_factors = [CoupledFactor(lambda th, I: ((th + I) % 1.0, I), (0.0, 1.0 / pi),
                                     *eta_p(pi)) for pi in rotators]
    for attempt in range(MS_MAX_RETRIES):
        q = A * B
        orbit = flows.pendulum_periodic_point(B)
        tau_cert = flows.tau_norm_certificate(orbit, sp, s=min(s, 0.01))
        cert = g_cert(tau_cert)
        budget = q / A ** 2
        if cert <= budget:
            def g2(th):
                x = ((th + 0.5) % 1.0) - 0.5
                if abs(x) >= VARTHETA:
                    return 0.0
                return eta_j_v(orbit.tau(x)) * bump_v(x)

            def dg2(th):
                x = ((th + 0.5) % 1.0) - 0.5
                if abs(x) >= VARTHETA:
                    return 0.0
                t = orbit.tau(x)
                return eta_j_d(t) / orbit.speed(x) * bump_v(x) + eta_j_v(t) * bump_d(x)

            factors = [CoupledFactor(pend_step, (0.0, orbit.I_B / A), g2, dg2),
                       *rotator_factors]
            return MSConstruction(n=n, j=j, rotators=rotators, A_prime=A_prime,
                                  A=A, B=B, q=q, s=s, orbit=orbit,
                                  factors=factors, cert_g=cert,
                                  cert_budget=budget,
                                  log={"c1": c1, "tau_cert": tau_cert,
                                       "retries": attempt, "B_formula": B_formula})
        B *= 2
    raise ParameterError("certificate q^-1|g| <= A^-2 unreachable within retries")


def synchronization_check(msc: MSConstruction) -> dict:
    """Verify g(a) = 1, dg(a) = 0, g(G^k a) = dg(G^k a) = 0, 1<=k<q.

    The rotator factors are exact; the pendulum factor is followed through
    its quadrature parametrization (theta_2 at step k is theta_B(k/A) up to
    the action rescaling).  Phases are formed in integers: k/A mod B as r/A,
    r the signed residue of k mod q = AB, and k/p_i mod 1 as
    (k mod p_i)/p_i, since k/A loses its fraction once q > 2^53.  tau is
    odd and increasing on [0, 1/2], so a pendulum time |r|/A >= t_win =
    tau(vartheta) puts theta_2 outside the bump's support: g_2 = dg_2 = 0
    there, every term of g and its partials is 0, and tau is inverted only
    inside the window: each k in 1..ceil(A t_win) and q-ceil(A t_win)..q-1
    is visited once, which covers every k with |r| < A t_win."""
    q, A = msc.q, msc.A
    tol = 1e-9
    worst_val, worst_dg = 0.0, 0.0
    g0, partials = _coupling(msc.factors, [p[0] for p in msc.a_point])
    dg0 = _l1(partials)
    t_win = msc.orbit.tau(VARTHETA)
    w = math.ceil(A * t_win)
    for k in [*range(1, min(w, q - 1) + 1), *range(max(w + 1, q - w), q)]:
        r = k - q if 2 * k > q else k   # 0 < k < q
        if abs(r) / A >= t_win:
            continue
        thetas = [math.copysign(msc.orbit.theta_of_t(abs(r) / A), r)]
        thetas += [(k % pi) / pi for pi in msc.rotators]
        g, partials = _coupling(msc.factors, thetas)
        worst_val = max(worst_val, abs(g))
        worst_dg = max(worst_dg, _l1(partials))
    return {"g_at_a": g0, "dg_at_a": dg0, "max_g_on_orbit": worst_val,
            "max_dg_on_orbit": worst_dg,
            "passed": (abs(g0 - 1.0) < tol and dg0 < tol
                       and worst_val < tol and worst_dg < tol)}


@dataclass
class CoupledMap:
    """Psi = Phi^{f x g} o (F x G) on A x A^(n-1).

    With no factors the map runs in exact mode: the second factor is a
    rational rotator on the integer lattice Z/qZ, where the
    synchronization values of eta are *exactly* {1, 0} (the lattice
    vanishing is a separately verified identity), so only the drift
    bookkeeping of the coupling lemma is exercised.  The transverse
    dynamics of the synchronized orbit is genuinely unstable, which is why
    a float rotator cannot hold the orbit over q^2 steps.  With factors the
    map follows the real construction numerically."""

    q: int
    factors: list

    def step(self, x, y):
        """One application; x = (th1, I1); y: factor states."""
        th1, I1 = x
        th1, I1 = (th1 + I1), I1
        if not self.factors:              # exact mode
            m = (y[0] + 1) % self.q
            if m == 0:                    # eta_r on its own lattice
                I1 = I1 + math.cos(TWO_PI * th1) / self.q
            return (th1 % 1.0, I1), [m]
        y2 = [f.step(t, i) for f, (t, i) in zip(self.factors, y)]
        g, partials = _coupling(self.factors, [t for t, _i in y2])
        # shear kick of f x g with f = q^-1 U(th1), U' = -cos(2 pi th)
        I1 = I1 + math.cos(TWO_PI * th1) * g / self.q
        U = -math.sin(TWO_PI * th1) / TWO_PI
        return (th1 % 1.0, I1), [(t, i - U * d / self.q) for (t, i), d in zip(y2, partials)]


def coupled_map(q: int) -> CoupledMap:
    """The exact-mode coupled map: the second factor is a rational rotator
    of period q on the integer lattice."""
    return CoupledMap(q=int(q), factors=[])


def eta_lattice_identity(p: int) -> dict:
    """Verify eta_p(k/p) = eta_p'(k/p) = 0 and eta_p(0) = 1, eta'(0) = 0.

    This is the analytic identity the exact-mode lattice values rely on."""
    ev, ed = eta_p(p)
    worst_v = max(abs(ev(k / p)) for k in range(1, p))
    worst_d = max(abs(ed(k / p)) for k in range(1, p))
    return {"p": p, "eta_at_0": ev(0.0), "deta_at_0": ed(0.0),
            "max_eta_lattice": worst_v, "max_deta_lattice": worst_d}


def run_coupled_drift(cm: CoupledMap, n_steps: Optional[int] = None):
    """Iterate Psi from ((0,0), a) and record the I_1 drift.

    a is the factors' point, or the rotator's lattice point 0 in exact
    mode.  The coupling lemma predicts Psi^{kq}((0,0), a) = (psi_q^k(0,0),
    a) = ((0, k/q), a), hence I_1 = 1 after q^2 steps."""
    q = cm.q
    n_steps = n_steps if n_steps is not None else q * q
    x = (0.0, 0.0)
    y = [f.point for f in cm.factors] or [0]
    I1 = np.empty(n_steps + 1)
    I1[0] = x[1]
    for k in range(1, n_steps + 1):
        x, y = cm.step(x, y)
        I1[k] = x[1]
    a_err = 0.0 if cm.factors else float(abs(y[0]))
    for (t, i), f in zip(y, cm.factors):
        a_err = max(a_err, abs(((t - f.point[0]) + 0.5) % 1.0 - 0.5), abs(i - f.point[1]))
    return {"I1": I1, "final": x, "a_return_error": a_err,
            "drift_error": abs(x[1] - n_steps / q ** 2)}


# ---------------------------------------------------------------------------
# single-resonance pairs on exponentially Liouville frequencies
# ---------------------------------------------------------------------------

@dataclass
class BessiExample:
    omega: np.ndarray
    s0: float
    s: float
    eps: float
    mu: float
    ks: list                 # resonant modes k_j
    k_orth: list             # orthogonal partners
    nus: list                # exp(-Omega(4 |k_j| s0))
    nu_orth: list
    certs: list              # measured |F|_s certificates
    growth: list             # exp(Omega(4|k|s0) - Omega(4|k|s))
    c_orth: float            # min |k~ . omega| / |k~|
    candidates_found: bool


def build_bessi(fp: FrequencyProfile, sp: ScaleProfile, s0: float, s: float,
                eps: float, mu: float) -> BessiExample:
    """Single-resonance perturbation family on convergent-derived modes.

    This construction lives on the 2-pi torus with its own mode norm
    |k| = |p| + q, self-consistently in the resonance condition
    0 < |k_j . omega| <= exp(-Omega(4|k_j| s0)), the weights
    nu = exp(-Omega(4|k| s0)), and the certificates |P_k| <= c
    exp(Omega(4|k| s)); then |F|_s <= 4 c eps holds once the two-scale gap
    absorbs the cross term.  The companion k~_j = (q_j, p_j) is exactly
    orthogonal and uniformly nonresonant.
    """
    if s >= s0:
        raise ParameterError("requires s < s0")
    if fp.convergents is None:
        raise ParameterError("profile carries no convergents")
    omega = fp.omega[:2]
    ks, korth, nus, nuorth, certs, growth = [], [], [], [], [], []
    c_orth = math.inf
    for p, q, e in fp.convergents:
        if e is None or e == 0.0:
            continue
        k = np.array([p, -q], dtype=float)
        k_norm = abs(p) + abs(q)
        try:
            om_hi = sp.omega_value(4.0 * k_norm * s0)
        except HorizonError:
            break
        resid = abs(float(k @ omega))
        if not 0.0 < resid <= math.exp(-min(om_hi, 700.0)):
            continue
        kt = np.array([q, p], dtype=float)
        assert float(kt @ k) == 0.0
        kt_norm = abs(q) + abs(p)
        nu = math.exp(-min(om_hi, 700.0))
        nut = math.exp(-min(sp.omega_value(4.0 * kt_norm * s0), 700.0))
        c_orth = min(c_orth, abs(float(kt @ omega)) / kt_norm)
        om_lo = sp.omega_value(4.0 * k_norm * s)
        growth.append(math.exp(min(om_hi - om_lo, 700.0)))
        # certificate of eps nu (1 - cos k)(1 + mu nu~ cos k~) term by term;
        # the cross term pays the Banach-algebra constant once
        ek = math.exp(min(sp.omega_value(4.0 * k_norm * s), 700.0))
        ekt = math.exp(min(sp.omega_value(4.0 * kt_norm * s), 700.0))
        cert = C_NORM * eps * (nu + nu * ek
                               + mu * nu * nut * ekt
                               + C_NORM * mu * nu * nut * ek * ekt)
        ks.append(k.astype(int))
        korth.append(kt.astype(int))
        nus.append(nu)
        nuorth.append(nut)
        certs.append(cert)
    return BessiExample(omega=omega, s0=s0, s=s, eps=eps, mu=mu, ks=ks,
                        k_orth=korth, nus=nus, nu_orth=nuorth, certs=certs,
                        growth=growth, c_orth=c_orth,
                        candidates_found=len(ks) > 0)


def liouville_growth_for_bessi(sp: ScaleProfile, s0: float):
    """Growth schedule making the resonance condition hold by construction.

    |k_j| = p_j + q_j <= 2 q_j, so q_{j+1} >= exp(Omega(4 * 2 q_j * s0))
    forces |k_j . omega| < 1/q_{j+1} <= exp(-Omega(4 |k_j| s0))."""

    def growth(q):
        return int(math.ceil(math.exp(min(sp.omega_value(8.0 * q * s0), 700.0)))) + 1

    return growth
