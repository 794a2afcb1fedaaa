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

Both sups sit on hulls, C and C^-1 on the concave majorant of (l, ln mu_l),
Omega on the convex minorant of (l, ln M_l); ScaleProfile builds each once
and answers by binary search.  When mu is nondecreasing (as under H1) ln M
is convex with slopes ln mu, so Omega searches log_mu and builds no array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import HorizonError, ParameterError

C_NORM = 4.0 * math.pi**2 / 3.0  # normalizing constant of the U_{M,s} norm

SIGMA_BAR_CAP = 0.99
LEMMA_L_CAP = 300   # orders l the product and composition lemma scans cover
MG_L_CAP = 150      # orders l the moderate-growth scans cover


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


def log_factorial(L: int) -> np.ndarray:
    """ln l! for l = 0..L-1, each from math.lgamma (within 3 ulp)."""
    return np.array([math.lgamma(l + 1.0) for l in range(L)])


@dataclass
class WeightSequence:
    """A weight sequence with derived arrays, all in log-space.

    ``log_M`` has length L_max+1 (indices 0..L_max); ``log_mu`` and
    ``log_nu`` have length L_max (index l covers the ratio l -> l+1).
    ``log_N`` is derived on first use, from ``log_factorial``.
    """

    log_M: np.ndarray
    log_mu: np.ndarray
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

    @cached_property
    def log_N(self) -> np.ndarray:
        """ln N_l = ln M_l - ln l!."""
        return self.log_M - log_factorial(len(self.log_M))


def _log_mu_of_family(family: Family, L: int) -> np.ndarray:
    l = np.arange(L, dtype=float)
    if family.name in ("analytic", "gevrey"):
        alpha = 1.0 if family.name == "analytic" else family.alpha
        if alpha < 1.0:
            raise ParameterError("gevrey exponent must satisfy alpha >= 1")
        log_mu = np.log1p(l, out=l)
        log_mu *= alpha
        return log_mu
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


def build_sequence(family: Family, L_max: int) -> WeightSequence:
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
    # formed in place, the scan first: the peak is the arrays kept, 3L doubles
    mono_from, monotone = _increment_monotonicity(log_mu)
    log_M = np.zeros(L + 1)
    np.cumsum(log_mu, out=log_M[1:])
    log_nu = np.arange(L, dtype=float)
    np.log1p(log_nu, out=log_nu)
    np.subtract(log_mu, log_nu, out=log_nu)  # nu_l = mu_l/(l+1)
    return WeightSequence(log_M=log_M, log_mu=log_mu, log_nu=log_nu,
                          family_tag=family_tag, family=family,
                          ratio_monotone=monotone, mono_from=mono_from)


def _increment_monotonicity(log_mu: np.ndarray):
    """Last index from which increments of log(mu) are nonincreasing."""
    d = np.diff(log_mu)
    d2 = np.subtract(d[1:], d[:-1], out=d[:-1])   # np.diff(d)
    rising = np.flatnonzero(d2 > 1e-12)
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


def _majorant(y: np.ndarray) -> np.ndarray:
    """Vertex indices of the least concave majorant of the points (l, y_l):
    every vertex whose right slope is >= its left one drops, until none does."""
    v = np.arange(len(y))
    while True:
        s = np.diff(y[v]) / np.diff(v)
        keep = np.ones(len(v), dtype=bool)
        keep[1:-1] = s[1:] < s[:-1]
        if keep.all():
            return v
        v = v[keep]


@dataclass
class ScaleProfile:
    """Evaluator for C(sigma), its inverse and Omega(y) on a horizon.

    Each query is a binary search on a hull built on first use.  C(sigma)
    sits on the first vertex v of the concave majorant of (l, ln mu_l) whose
    right slope s is <= sigma; C^-1(y) on the first vertex l >= 1 whose
    right edge meets l = 0 at b = ln mu_v - s v >= ln y.  Omega(y) sits on
    the first index whose slope of the convex minorant of (l, ln M_l)
    reaches ln y; those slopes are ln mu itself when it is nondecreasing,
    else its means over the minorant's edges.  Ties go to the smallest
    index, as in an argmax scan.  ``sigma_bar`` is the smallest sigma with
    C(sigma) = 1 when that is below SIGMA_BAR_CAP; for mu_1 > e the true
    threshold exceeds 1 and is capped (``sigma_bar_capped`` is then set).
    """

    ws: WeightSequence
    sigma_bar: float = field(init=False)
    sigma_bar_capped: bool = field(init=False)
    mu_nondecreasing: bool = field(init=False)  # implied by H1; certifies Omega

    def __post_init__(self):
        lm = self.ws.log_mu
        tmp = np.arange(1, len(lm), dtype=float)  # scratch: ln mu_l / l, then np.diff(lm)
        raw = float(np.max(np.divide(lm[1:], tmp, out=tmp))) if len(tmp) else 0.0
        self.sigma_bar_capped = raw > SIGMA_BAR_CAP
        self.sigma_bar = min(raw, SIGMA_BAR_CAP)
        self.mu_nondecreasing = not np.any(np.subtract(lm[1:], lm[:-1], out=tmp) < -1e-12)

    @cached_property
    def _c_hull(self):
        """(v, -s, b) of the concave majorant of (l, ln mu_l)."""
        lm = self.ws.log_mu
        v = _majorant(lm)
        s = np.diff(lm[v]) / np.diff(v)
        return v, -s, lm[v[:-1]] - s * v[:-1]

    @cached_property
    def _omega_slopes(self) -> np.ndarray:
        """Slopes of the convex minorant of (l, ln M_l), one per index < L."""
        lm = self.ws.log_mu
        if (lm[1:] >= lm[:-1]).all():
            return lm
        lM = self.ws.log_M
        w = _majorant(-lM)
        return np.repeat(np.diff(lM[w]) / np.diff(w), np.diff(w))

    # -- Cauchy function ----------------------------------------------------

    def cauchy_c(self, sigma: float) -> SupResult:
        """C(sigma) = sup_l mu_l e^{-sigma l} as (value, argmax, certified)."""
        if not 0.0 < sigma < 1.0:
            raise ParameterError("cauchy_c requires 0 < sigma < 1")
        ws, lm = self.ws, self.ws.log_mu
        v, neg_s, _ = self._c_hull
        l_star = int(v[np.searchsorted(neg_s, -sigma)])
        value = float(math.exp(lm[l_star] - sigma * l_star))
        # With increments of log(mu) nonincreasing beyond mono_from, once the
        # terms are falling at the boundary they fall forever, so the
        # horizon's max is the global sup.  A max sitting on the boundary is
        # always inconclusive.
        last = len(lm) - 1
        falling = (lm[last] - sigma * last) - (lm[last - 1] - sigma * (last - 1)) < 0.0
        certified = ws.ratio_monotone and l_star < last and ws.mono_from < last and falling
        return SupResult(value=value, argmax=l_star, certified=certified)

    def cauchy_c_inv(self, y: float) -> float:
        """Inverse of C on its monotone branch (0, sigma_bar]: the exact
        max_{l >= 1} (ln mu_l - ln y)/l clamped to sigma_bar, so C(C^-1(y)) = y
        whenever y is in the range of C on the horizon (rtol 1e-10 met with margin)."""
        if y < 1.0:
            raise ParameterError("cauchy_c_inv requires y >= 1")
        log_y = math.log(y)
        v, _, b = self._c_hull
        l_star = int(v[max(np.searchsorted(b, log_y), 1)])
        sigma = float((self.ws.log_mu[l_star] - log_y) / l_star)
        if sigma >= self.sigma_bar:
            return self.sigma_bar
        if sigma <= 0.0 or l_star == len(self.ws.log_mu) - 1:
            raise HorizonError(
                f"C is capped at {self.cauchy_c(1e-16).value:.3e} on the "
                f"horizon; cannot invert y={y:.3e}",
                partial=max(sigma, 1e-16),
            )
        got = self.cauchy_c(sigma).value
        if abs(got - y) > 1e-10 * y:
            raise HorizonError(f"cauchy_c_inv residual {got - y:.3e} exceeds rtol",
                               partial=sigma)
        return sigma

    # -- growth function ----------------------------------------------------

    def _omega_at(self, ys: np.ndarray, log_y: np.ndarray):
        """(l*, l* ln y - ln M_l*) at ys >= 0 given log_y = ln max(y, 1); an
        argmax on L_max raises HorizonError with that partial value."""
        if (ys < 0.0).any():
            raise ParameterError("omega requires y >= 0")
        l_star = np.searchsorted(self._omega_slopes, log_y) * (ys > 1.0)
        value = l_star * log_y - self.ws.log_M[l_star]
        off = l_star == self.ws.L_max
        if off.any():
            i = int(np.argmax(off))
            raise HorizonError(
                f"omega({ys.flat[i]:.4g}): argmax beyond horizon "
                f"L_max={self.ws.L_max}", partial=float(value.flat[i]))
        return l_star, value

    def omega(self, y: float) -> SupResult:
        """Omega(y) = ln sup_l y^l/M_l; certified (exact argmax) under H1."""
        # ln y from math.log, in omega_values from np.log: the two differ in
        # the last bit on some inputs, and scalar artifacts rest on math.log
        l_star, value = self._omega_at(np.array([float(y)]), np.array([math.log(max(y, 1.0))]))
        return SupResult(value=float(value[0]), argmax=int(l_star[0]),
                         certified=self.mu_nondecreasing or y <= 1.0)

    def omega_value(self, y: float) -> float:
        return self.omega(y).value

    def omega_values(self, ys) -> np.ndarray:
        """Vectorized Omega over an array."""
        ys = np.asarray(ys, dtype=float)
        return self._omega_at(ys, np.log(np.maximum(ys, 1.0)))[1]

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

def _convolution_scan(ws: WeightSequence, a: int) -> float:
    """Max over l of (l+1+a)^2/N_{l+a} * sum_j N_{j+a}N_{l-j+a}/((j+1+a)(l-j+1+a))^2."""
    logN = ws.log_N
    worst = 0.0
    for l in range(min(LEMMA_L_CAP, ws.L_max - 1 - a) + 1):
        j = np.arange(l + 1)
        terms = (np.exp(logN[j + a] + logN[l - j + a] - logN[l + a])
                 / ((j + 1.0 + a) ** 2 * (l - j + 1.0 + a) ** 2))
        worst = max(worst, float((l + 1 + a) ** 2 * np.sum(terms)))
    return worst


def product_lemma_scan(ws: WeightSequence) -> float:
    """Max over l <= LEMMA_L_CAP of (l+1)^2/N_l * sum_j N_j N_{l-j}/((j+1)(l-j+1))^2.

    Under H1 the value never exceeds 4 pi^2 / 3 (Banach-algebra constant).
    Ratios are formed in log-space; each summand is <= 1 under H1.
    """
    return _convolution_scan(ws, 0)


def composition_lemma_scan(ws: WeightSequence) -> float:
    """Shifted variant: (l+2)^2/N_{l+1} * sum_j N_{j+1}N_{l-j+1}/((j+2)(l-j+2))^2."""
    return _convolution_scan(ws, 1)


def mg_diagonal_constant(ws: WeightSequence) -> float:
    """Smallest A with M_{2l} <= A^l M_l^2 for all 1 <= l <= MG_L_CAP."""
    L = min(MG_L_CAP, ws.L_max // 2)
    l = np.arange(1, L + 1)
    vals = (ws.log_M[2 * l] - 2.0 * ws.log_M[l]) / l
    return float(math.exp(np.max(vals)))


def mg_mu_bound_scan(ws: WeightSequence) -> bool:
    """Check ln(mu_l)/ln(l) <= ln(A)(1/ln 2 + 2/ln l) with measured A."""
    A = max(mg_diagonal_constant(ws), 1.0 + 1e-15)
    L = min(MG_L_CAP, ws.L_max - 1)
    l = np.arange(2, L + 1, dtype=float)
    lhs = ws.log_mu[2 : L + 1] / np.log(l)
    rhs = math.log(A) * (1.0 / math.log(2.0) + 2.0 / np.log(l))
    return bool(np.all(lhs <= rhs + 1e-12))
