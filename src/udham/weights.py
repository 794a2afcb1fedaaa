"""Weight sequences M and their scale calculus.

A weight sequence M = (M_l) with M_0 = M_1 = 1 fixes a class of
ultra-differentiable functions.  Everything downstream is driven by three
derived sequences and two scalar functions:

    mu_l = M_{l+1}/M_l,    N_l = M_l/l!,    nu_l = N_{l+1}/N_l = mu_l/(l+1)

    C(sigma) = sup_l mu_l exp(-sigma*l)     (Cauchy function, width loss)
    Omega(y) = ln sup_l y^l / M_l           (growth function, Fourier decay)

All sequences are stored in log-space: for the wilder built-in families
(exp-log, exp-sqrt) the values M_l overflow doubles long before the default
horizon.  Structural hypotheses:

    H1:  nu nondecreasing (N log-convex)
    H2:  ln(mu_l)/l -> 0  (mu sub-exponential)
    H3:  sum 1/mu_l < oo  (non-quasi-analytic; bump functions exist)
    MG:  sup (M_{l+j}/(M_l M_j))^(1/(l+j)) < oo  (moderate growth)

H1 is checked exactly on the stored horizon; H2/H3/MG are finite-horizon
diagnostics and never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammaln

C_NORM = 4.0 * math.pi**2 / 3.0  # normalizing constant of the U_{M,s} norm

SIGMA_BAR_CAP = 0.99
DEFAULT_L_MAX = 2048


class ParameterError(ValueError):
    """Invalid family parameters."""


class HorizonError(RuntimeError):
    """A sup/argmax ran off the stored horizon; carries the partial value."""

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


@dataclass(frozen=True)
class Family:
    """Built-in weight-sequence family selector."""

    name: str  # analytic | gevrey | gevrey_log | exp_log | exp_sqrt | custom
    alpha: float = 1.0
    beta: float = 0.0

    @property
    def tag(self) -> str:
        if self.name == "gevrey":
            return f"Gevrey({self.alpha:g})"
        if self.name == "gevrey_log":
            return f"GevreyLog({self.alpha:g},{self.beta:g})"
        return {"analytic": "Analytic", "exp_log": "ExpLog",
                "exp_sqrt": "ExpSqrt"}.get(self.name, "Custom")


def gevrey(alpha: float) -> Family:
    return Family("gevrey", alpha=alpha)


def gevrey_log(alpha: float, beta: float) -> Family:
    return Family("gevrey_log", alpha=alpha, beta=beta)


def exp_log() -> Family:
    return Family("exp_log")


def exp_sqrt() -> Family:
    return Family("exp_sqrt")


def analytic() -> Family:
    return Family("analytic")


BUILTIN_FAMILIES = ("analytic", "gevrey", "gevrey_log", "exp_log", "exp_sqrt")


@dataclass
class WeightSequence:
    """A weight sequence with derived arrays, all in log-space.

    ``log_M`` has length L_max+1 (indices 0..L_max); ``log_mu`` and
    ``log_nu`` have length L_max (index l covers the ratio l -> l+1).
    """

    log_M: np.ndarray
    log_mu: np.ndarray
    log_N: np.ndarray
    log_nu: np.ndarray
    family_tag: str
    family: Optional[Family]
    ratio_monotone: bool
    mono_from: int  # increments of log_mu are nonincreasing from this index on

    def __post_init__(self):
        if abs(self.log_M[0]) > 1e-15 or abs(self.log_M[1]) > 1e-12:
            raise ParameterError("normalization M_0 = M_1 = 1 violated")

    @property
    def L_max(self) -> int:
        return len(self.log_M) - 1

    @property
    def values(self) -> np.ndarray:
        """M_l in linear space (may overflow to inf for wild families)."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_M)

    @property
    def mu(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_mu)

    @property
    def bigN(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_N)

    @property
    def nu(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_nu)


def _log_mu_of_family(family: Family, L: int) -> np.ndarray:
    l = np.arange(L, dtype=float)
    if family.name in ("analytic", "gevrey"):
        alpha = 1.0 if family.name == "analytic" else family.alpha
        if alpha < 1.0:
            raise ParameterError("gevrey exponent must satisfy alpha >= 1")
        return alpha * np.log1p(l)
    if family.name == "gevrey_log":
        if family.alpha < 1.0 or family.beta < 0.0:
            raise ParameterError("gevrey_log requires alpha >= 1, beta >= 0")
        # mu_l = (l+1)^alpha (ln(e+l))^beta; at l = 0 this is exactly 1, which
        # resolves the (M_{alpha,beta})_0 normalization anomaly.
        return family.alpha * np.log1p(l) + family.beta * np.log(np.log(math.e + l))
    if family.name == "exp_log":
        # mu_l = exp((ln l)^2) for l >= 4; floored by l+1 at small l so that
        # nu is nondecreasing from the start (H1 exact, asymptotics intact).
        raw = np.where(l >= 1, np.log(np.maximum(l, 1.0)) ** 2, 0.0)
        floor = np.where(l >= 1, np.log1p(l), 0.0)
        return np.maximum(raw, floor)
    if family.name == "exp_sqrt":
        return np.sqrt(l)
    raise ParameterError(f"unknown family {family.name!r}")


def build_sequence(family: Family, L_max: int = DEFAULT_L_MAX) -> WeightSequence:
    """Construct a built-in weight sequence on indices 0..L_max."""
    if L_max < 2:
        raise ParameterError("L_max must be at least 2")
    log_mu = _log_mu_of_family(family, L_max)
    return from_log_mu(log_mu, family_tag=family.tag, family=family)


def from_log_mu(log_mu: np.ndarray, family_tag: str = "Custom",
                family: Optional[Family] = None) -> WeightSequence:
    """Build a WeightSequence from prescribed log-ratios log(mu_l)."""
    log_mu = np.asarray(log_mu, dtype=float)
    if abs(log_mu[0]) > 1e-12:
        raise ParameterError("mu_0 must equal 1 (normalization M_0 = M_1 = 1)")
    if not np.all(np.isfinite(log_mu)):
        raise ParameterError("mu must be finite and positive")
    L = len(log_mu)
    log_M = np.concatenate(([0.0], np.cumsum(log_mu)))
    lfac = gammaln(np.arange(L + 1, dtype=float) + 1.0)
    log_N = log_M - lfac
    log_nu = log_mu - np.log1p(np.arange(L, dtype=float))  # nu_l = mu_l/(l+1)
    mono_from, monotone = _increment_monotonicity(log_mu)
    return WeightSequence(log_M=log_M, log_mu=log_mu, log_N=log_N,
                          log_nu=log_nu, family_tag=family_tag, family=family,
                          ratio_monotone=monotone, mono_from=mono_from)


def from_values(values: np.ndarray, family_tag: str = "Custom") -> WeightSequence:
    """Build from explicit M_l values (linear space; must fit in doubles)."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise ParameterError("M_l must be finite and positive")
    log_M = np.log(values)
    return from_log_mu(np.diff(log_M), family_tag=family_tag)


def _increment_monotonicity(log_mu: np.ndarray, tol: float = 1e-12):
    """Last index from which increments of log(mu) are nonincreasing."""
    d = np.diff(log_mu)
    rising = np.flatnonzero(np.diff(d) > tol)
    mono_from = 0 if len(rising) == 0 else int(rising[-1] + 1)
    monotone = mono_from + 2 < len(log_mu)
    return mono_from, monotone


# ---------------------------------------------------------------------------
# scale profile: C, C^-1, Omega
# ---------------------------------------------------------------------------

@dataclass
class SupResult:
    value: float
    argmax: int
    certified: bool


@dataclass
class ScaleProfile:
    """Evaluator for C(sigma), its inverse and Omega(y) on a horizon.

    ``sigma_bar`` is the smallest sigma with C(sigma) = 1 when that number is
    below SIGMA_BAR_CAP; for sequences with mu_1 > e the true threshold
    exceeds 1 and is capped (``sigma_bar_capped`` is then set).
    """

    ws: WeightSequence
    sigma_bar: float = field(init=False)
    sigma_bar_capped: bool = field(init=False)
    mu_nondecreasing: bool = field(init=False)  # H1, which Omega's argmax formula needs

    def __post_init__(self):
        l = np.arange(1, len(self.ws.log_mu), dtype=float)
        raw = float(np.max(self.ws.log_mu[1:] / l)) if len(l) else 0.0
        self.sigma_bar_capped = raw > SIGMA_BAR_CAP
        self.sigma_bar = min(raw, SIGMA_BAR_CAP)
        self.mu_nondecreasing = not np.any(np.diff(self.ws.log_mu) < -1e-12)

    @property
    def L_max(self) -> int:
        return self.ws.L_max

    # -- Cauchy function ----------------------------------------------------

    def cauchy_c(self, sigma: float) -> SupResult:
        """C(sigma) = sup_l mu_l e^{-sigma l} as (value, argmax, certified)."""
        if not 0.0 < sigma < 1.0:
            raise ParameterError("cauchy_c requires 0 < sigma < 1")
        ws = self.ws
        t = ws.log_mu - sigma * np.arange(len(ws.log_mu))
        l_star = int(np.argmax(t))
        value = float(math.exp(t[l_star]))
        # With increments of log(mu) nonincreasing beyond mono_from, once the
        # scanned terms are falling at the boundary they fall forever, so the
        # observed max is the global sup.  A max sitting on the boundary is
        # always inconclusive.
        certified = (
            ws.ratio_monotone
            and l_star < len(t) - 1
            and ws.mono_from < len(t) - 1
            and t[-1] - t[-2] < 0.0
        )
        return SupResult(value=value, argmax=l_star, certified=certified)

    def cauchy_c_value(self, sigma: float) -> float:
        return self.cauchy_c(sigma).value

    def cauchy_c_inv(self, y: float, rtol: float = 1e-10) -> float:
        """Inverse of C on its monotone branch (0, sigma_bar].

        Uses the exact generalized-inverse formula
            C^-1(y) = max_{l >= 1} (ln mu_l - ln y)/l
        clamped to sigma_bar, so that C(C^-1(y)) = y whenever y is in the
        range of C on the horizon (the rtol contract is met with margin).
        """
        if y < 1.0:
            raise ParameterError("cauchy_c_inv requires y >= 1")
        log_y = math.log(y)
        l = np.arange(1, len(self.ws.log_mu), dtype=float)
        scores = (self.ws.log_mu[1:] - log_y) / l
        l_star = int(np.argmax(scores))
        sigma = float(scores[l_star])
        if sigma >= self.sigma_bar:
            return self.sigma_bar
        if sigma <= 0.0 or l_star >= len(scores) - 1:
            raise HorizonError(
                f"C is capped at {self.cauchy_c_value(1e-16):.3e} on the "
                f"horizon; cannot invert y={y:.3e}",
                partial=max(sigma, 1e-16),
            )
        got = self.cauchy_c_value(sigma)
        if abs(got - y) > rtol * y:
            raise HorizonError(f"cauchy_c_inv residual {got - y:.3e} exceeds rtol",
                               partial=sigma)
        return sigma

    # -- growth function ----------------------------------------------------

    def omega(self, y: float) -> SupResult:
        """Omega(y) = ln sup_l y^l/M_l; exact argmax under H1.

        argmax l* = min{ l : mu_l >= y } and
        Omega(y) = l* ln(y) - ln M_{l*}.  Without H1 that l* need not be the
        argmax: the answer is then the direct scan over the horizon,
        uncertified, and a max on the last index raises HorizonError.
        """
        if y < 0.0:
            raise ParameterError("omega requires y >= 0")
        if y <= 1.0:
            return SupResult(value=0.0, argmax=0, certified=True)
        ws = self.ws
        log_y = math.log(y)
        if not self.mu_nondecreasing:
            t = np.arange(len(ws.log_M)) * log_y - ws.log_M
            l_star = int(np.argmax(t))
            if l_star == len(t) - 1:
                raise HorizonError(
                    f"omega({y:.4g}): max on the horizon L_max={ws.L_max}",
                    partial=float(t[l_star]))
            return SupResult(value=float(t[l_star]), argmax=l_star, certified=False)
        above = np.flatnonzero(ws.log_mu >= log_y)
        if len(above) == 0:
            partial = float(len(ws.log_mu) * log_y - ws.log_M[-1])
            raise HorizonError(
                f"omega({y:.4g}): argmax beyond horizon L_max={ws.L_max}",
                partial=partial,
            )
        l_star = int(above[0])
        value = float(l_star * log_y - ws.log_M[l_star])
        return SupResult(value=value, argmax=l_star, certified=True)

    def omega_value(self, y: float) -> float:
        return self.omega(y).value

    def omega_values(self, ys) -> np.ndarray:
        """Vectorized Omega over an array (requires nondecreasing mu, i.e. H1)."""
        ys = np.asarray(ys, dtype=float)
        log_y = np.log(np.maximum(ys, 1.0))
        lm = self.ws.log_mu
        if not self.mu_nondecreasing:
            return np.array([self.omega_value(float(y)) for y in ys])
        l_star = np.searchsorted(lm, log_y, side="left")
        if np.any(l_star >= len(lm)):
            raise HorizonError(
                f"omega: argmax beyond horizon for y up to {np.max(ys):.3g}")
        return l_star * log_y - self.ws.log_M[l_star]

    def omega_brute(self, y: float, l_cap: Optional[int] = None) -> float:
        """Direct scan oracle for Omega (tests only)."""
        if y <= 1.0:
            return 0.0
        L = self.ws.L_max if l_cap is None else min(l_cap, self.ws.L_max)
        l = np.arange(L + 1, dtype=float)
        return float(np.max(l * math.log(y) - self.ws.log_M[: L + 1]))

    # -- matching diagnostics ------------------------------------------------

    def matching_report(self, y_grid) -> dict:
        """Ratio r(y) = ln(1/C^-1(y)) / ln Omega(y) over a grid.

        Matching sequences have r(y) -> const near 1 up to scalings; the
        report never claims a hard verdict.
        """
        y_grid = np.asarray(y_grid, dtype=float)
        if np.any(np.diff(y_grid) <= 0):
            raise ParameterError("y_grid must be increasing")
        ratios = []
        for y in y_grid:
            ci = self.cauchy_c_inv(float(y))
            om = self.omega_value(float(y))
            ratios.append(math.log(1.0 / ci) / math.log(om) if om > 1.0 else math.nan)
        ratios = np.array(ratios)
        finite = ratios[np.isfinite(ratios)]
        return {
            "y": y_grid,
            "ratio": ratios,
            "min": float(np.min(finite)) if len(finite) else math.nan,
            "max": float(np.max(finite)) if len(finite) else math.nan,
        }


# ---------------------------------------------------------------------------
# structural conditions
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    h1_pass: bool
    h1_first_violation: Optional[int]
    h2_tail_max: float      # max over tail window of ln(mu_l)/l
    h2_slope: float         # least-squares trend of ln(mu_l)/l on the tail
    h3_partial_sum: float   # sum of 1/mu_l over the horizon
    h3_tail_estimate: float
    mg_value: float         # finite-horizon sup of (M_{l+j}/(M_l M_j))^(1/(l+j))
    horizon: int
    known_verdicts: Optional[dict] = None


def _known_verdicts(family: Optional[Family]) -> Optional[dict]:
    if family is None:
        return None
    if family.name in ("analytic", "gevrey"):
        alpha = 1.0 if family.name == "analytic" else family.alpha
        return {"H1": True, "H2": True, "H3": alpha > 1.0, "MG": True}
    if family.name == "gevrey_log":
        h3 = family.alpha > 1.0 or (family.alpha == 1.0 and family.beta > 1.0)
        return {"H1": True, "H2": True, "H3": h3, "MG": True}
    if family.name in ("exp_log", "exp_sqrt"):
        return {"H1": True, "H2": True, "H3": True, "MG": False}
    return None


def check_conditions(ws: WeightSequence, mg_horizon: int = 512) -> ConditionReport:
    """Exact H1 check plus finite-horizon H2/H3/MG diagnostics."""
    log_nu = ws.log_nu
    rises = np.diff(log_nu)
    bad = np.flatnonzero(rises < -1e-12)
    h1_pass = len(bad) == 0 and log_nu[0] > -1e-12
    first_violation = None
    if not h1_pass:
        first_violation = 0 if log_nu[0] <= -1e-12 else int(bad[0] + 1)

    L = len(ws.log_mu)
    tail_lo = max(1, 3 * L // 4)
    l_tail = np.arange(tail_lo, L, dtype=float)
    ratio_tail = ws.log_mu[tail_lo:] / l_tail
    h2_tail_max = float(np.max(ratio_tail))
    h2_slope = float(np.polyfit(l_tail, ratio_tail, 1)[0]) if len(l_tail) > 2 else 0.0

    inv_mu = np.exp(-ws.log_mu)
    h3_partial = float(np.sum(inv_mu))
    r = inv_mu[-1] / inv_mu[-2] if inv_mu[-2] > 0 else 1.0
    h3_tail = float(inv_mu[-1] * r / (1.0 - r)) if r < 1.0 else math.inf

    H = min(mg_horizon, ws.L_max)
    logM = ws.log_M[: H + 1]
    lj = np.add.outer(np.arange(H + 1), np.arange(H + 1))
    mask = (lj >= 1) & (lj <= H)
    num = np.add.outer(logM, logM)
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = (logM[np.minimum(lj, H)] - num) / np.maximum(lj, 1)
    mg_value = float(math.exp(np.max(grid[mask])))

    return ConditionReport(
        h1_pass=bool(h1_pass),
        h1_first_violation=first_violation,
        h2_tail_max=h2_tail_max,
        h2_slope=h2_slope,
        h3_partial_sum=h3_partial,
        h3_tail_estimate=h3_tail,
        mg_value=mg_value,
        horizon=ws.L_max,
        known_verdicts=_known_verdicts(ws.family),
    )


# ---------------------------------------------------------------------------
# lemma constant scans (finite verification of the product/composition lemmas
# and of the moderate-growth bound)
# ---------------------------------------------------------------------------

def product_lemma_scan(ws: WeightSequence, l_cap: int = 300) -> float:
    """Max over l <= l_cap of (l+1)^2/N_l * sum_j N_j N_{l-j}/((j+1)(l-j+1))^2.

    Under H1 the value never exceeds 4 pi^2 / 3 (Banach-algebra constant).
    Ratios are formed in log-space; each summand is <= 1 under H1.
    """
    L = min(l_cap, ws.L_max - 1)
    logN = ws.log_N
    worst = 0.0
    for l in range(L + 1):
        j = np.arange(l + 1)
        terms = np.exp(logN[j] + logN[l - j] - logN[l]) / ((j + 1.0) ** 2 * (l - j + 1.0) ** 2)
        worst = max(worst, float((l + 1) ** 2 * np.sum(terms)))
    return worst


def composition_lemma_scan(ws: WeightSequence, l_cap: int = 300) -> float:
    """Shifted variant: (l+2)^2/N_{l+1} * sum_j N_{j+1}N_{l-j+1}/((j+2)(l-j+2))^2."""
    L = min(l_cap, ws.L_max - 2)
    logN = ws.log_N
    worst = 0.0
    for l in range(L + 1):
        j = np.arange(l + 1)
        terms = np.exp(logN[j + 1] + logN[l - j + 1] - logN[l + 1]) / ((j + 2.0) ** 2 * (l - j + 2.0) ** 2)
        worst = max(worst, float((l + 2) ** 2 * np.sum(terms)))
    return worst


def mg_diagonal_constant(ws: WeightSequence, l_cap: int = 150) -> float:
    """Smallest A with M_{2l} <= A^l M_l^2 for all 1 <= l <= l_cap."""
    L = min(l_cap, ws.L_max // 2)
    l = np.arange(1, L + 1)
    vals = (ws.log_M[2 * l] - 2.0 * ws.log_M[l]) / l
    return float(math.exp(np.max(vals)))


def mg_mu_bound_scan(ws: WeightSequence, l_cap: int = 150) -> bool:
    """Check ln(mu_l)/ln(l) <= ln(A)(1/ln 2 + 2/ln l) with measured A."""
    A = max(mg_diagonal_constant(ws, l_cap), 1.0 + 1e-15)
    L = min(l_cap, ws.L_max - 1)
    l = np.arange(2, L + 1, dtype=float)
    lhs = ws.log_mu[2 : L + 1] / np.log(l)
    rhs = math.log(A) * (1.0 / math.log(2.0) + 2.0 / np.log(l))
    return bool(np.all(lhs <= rhs + 1e-12))
