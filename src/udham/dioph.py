"""Small-denominator profiles and rational approximation.

For a nonresonant frequency vector omega the profile

    Psi_omega(Q) = max { |k . omega|^-1 : k integer, 0 < |k|_1 <= Q }

is a nondecreasing staircase; Delta(Q) = Q Psi(Q) and its generalized
inverse Delta* drive every quantitative statement downstream.  |k| means
the l1 norm unless a profile says otherwise: the instability
constructions read the |k|_inf staircase of :func:`profile_linf`, on
which the convergent sandwiches are exact.

For omega = (1, w, 0...) a profile is the list of convergents of w plus a
lattice norm, and one derivation turns them into the staircase: a
convergent (p, q) enters at ball size p + q (l1) or max(p, q) (linf), only
strict rises are kept, and the table holds up to the ball size of the next
convergent minus 1.  The convergents come from

* continued fractions of the double w (exact at any Q, the values agree
  bit-for-bit with brute force run on the same float);
* the closed-form Fibonacci generator of the golden mean (lazy, unbounded);
* prescribed lists (Liouville-type constructions, exact integers).

Brute-force lattice enumeration (exact, budget-guarded, small Q, any d)
feeds its per-Q table through the same strict-rise filter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import BudgetError, HorizonError, ParameterError, ResonanceError, UnsupportedError
from .weights import ScaleProfile


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
PSI_BRUTE_BUDGET = 20_000_000   # lattice points either psi oracle may enumerate


def named_value(name: str) -> float:
    if name == "golden":
        return GOLDEN
    if name == "sqrt2":
        return math.sqrt(2.0)
    if name == "e-2":
        return math.e - 2.0
    raise ParameterError(f"unknown symbolic frequency {name!r}")


def _convergents(x: Fraction) -> Iterator:
    """Continued-fraction convergents (p, q, e) of the rational x, ending at x.

    e = q*x - p is exact before it is rounded to a float; |e| decreases.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0   # the convergents of index -2 and -1
    rem = x
    while True:
        a = math.floor(rem)
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        yield p1, q1, float(q1 * x - p1)
        if rem == a:
            return
        rem = 1 / (rem - a)


def convergents_of_float(x: float):
    """Exact continued-fraction convergents of the double x, q <= 1e15.

    Works on Fraction(x), which represents the float exactly, so the output
    is bit-consistent with any other computation on the same double.
    Returns a list of (p, q, e) with e = q*x - p exact, |e| decreasing.
    """
    return list(itertools.takewhile(lambda c: c[1] <= 10**15, _convergents(Fraction(x))))


# ---------------------------------------------------------------------------
# periodic vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicVector:
    """v with T v integer for minimal period T > 0."""

    v: tuple
    T: float
    Tv: tuple

    def __post_init__(self):
        approx = self.T * np.asarray(self.v, dtype=float)
        if np.max(np.abs(approx - np.asarray(self.Tv, dtype=float))) > 1e-10:
            raise ParameterError("T*v is not integer to 1e-10")
        g = math.gcd(*(int(m) for m in self.Tv))
        if g != 1:
            raise ParameterError(f"period not minimal: gcd(Tv) = {g}")


def periodic_from_rational(num, den) -> PeriodicVector:
    """Periodic vector v = num/den (componentwise integer num, common den)."""
    num = [int(x) for x in num]
    den = int(den)
    g = math.gcd(*num, den)
    num = [x // g for x in num]
    den //= g
    return PeriodicVector(v=tuple(x / den for x in num), T=float(den), Tv=tuple(num))


# ---------------------------------------------------------------------------
# Psi oracles and the frequency profile
# ---------------------------------------------------------------------------

def psi_brute_table(omega, Q_max: int):
    """Psi_omega(Q) for all integer Q = 1..Q_max in one enumeration pass."""
    omega = np.asarray(omega, dtype=float)
    n = len(omega)
    if (2 * Q_max + 1) ** n > PSI_BRUTE_BUDGET:
        raise BudgetError("lattice ball exceeds budget")
    rngs = [np.arange(-Q_max, Q_max + 1)] * n
    K = np.stack(np.meshgrid(*rngs, indexing="ij"), axis=-1).reshape(-1, n)
    norms = np.sum(np.abs(K), axis=1)
    sel = (norms > 0) & (norms <= Q_max)
    K, norms = K[sel], norms[sel]
    dots = np.abs(K @ omega)
    if np.any(dots == 0.0):
        k_res = tuple(int(x) for x in K[np.argmax(dots == 0.0)])
        raise ResonanceError(f"exact resonance at k={k_res}", k_res)
    vals = np.empty(Q_max)
    ks = []
    best = math.inf
    best_k = None
    for Q in range(1, Q_max + 1):
        shell = norms == Q
        if np.any(shell):
            i = np.argmin(dots + np.where(shell, 0.0, math.inf))
            if dots[i] < best:
                best, best_k = dots[i], tuple(int(x) for x in K[i])
                mk = tuple(int(-x) for x in K[i])
                if mk < best_k:
                    best_k = mk
        vals[Q - 1] = 1.0 / best
        ks.append(best_k)
    return vals, ks


@dataclass
class FrequencyProfile:
    """Psi staircase of a frequency vector over the ball |k| <= Q.

    For omega = (1, w, 0...) a profile is the convergents (p, q, e) of w,
    e = q w - p, and the lattice norm of the ball: ``"l1"`` (ball size
    |p| + q) or ``"linf"`` (max(|p|, q)).  ``more``, when given, maps j to
    an iterator over the convergents j, j+1, ... as (p, q, e, ln Psi); the
    list is then a prefix of its output, grows by chunks of 8 on demand and
    takes ln Psi from it, not from -ln|e|.  The brute-force source has no
    convergents and installs its per-Q table through the same filter.

    ``breaks``, ``log_psi``, ``psi_values``, ``ks`` and ``horizon`` are
    derived: on [breaks[i], breaks[i+1]) the value is psi_values[i] (exp of
    log_psi[i], or the brute table's own value), achieved by ``ks[i]``, for
    Q <= horizon.  The horizon is the ball size of the next
    convergent minus 1: the first one with e None (unknown terminal) or 0
    (exact resonance), else the lower bound (p_N + p_N-1, q_N + q_N-1)
    when the list simply ends.  The continuous envelope rises linearly only
    on the last unit interval before each jump, which keeps
    Psi_omega(Q) <= Psi(Q) <= Psi_omega(Q+1).
    """

    omega: np.ndarray
    d: int                       # leading nonresonant components (omega = (bar, 0))
    norm: str                    # "l1" or "linf"
    convergents: Optional[list]  # (p, q, e); e None at an unknown terminal
    more: Optional[Callable[[int], Iterator]] = None
    label: str = ""
    breaks: list = field(init=False, default_factory=list)  # increasing ints, breaks[0] == 1
    log_psi: list = field(init=False, default_factory=list)
    psi_values: list = field(init=False, default_factory=list)
    ks: list = field(init=False, default_factory=list)
    horizon: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.convergents is None:
            return
        if self.more is not None:
            head = itertools.islice(self.more(0), len(self.convergents))
            self._conv_log_psi = [c[3] for c in head]
        else:
            self._conv_log_psi = [None if e is None or e == 0.0 else -math.log(abs(e))
                                  for (_p, _q, e) in self.convergents]
        self._rebuild()

    def _rebuild(self):
        """Derive the staircase from the convergents.

        The minimizing k over the ball of size Q is the convergent (-p_j, q_j)
        of largest ball size <= Q (for l1: q -> q + round(q w) is strictly
        increasing); at Q = 1 the candidates are (1, 0) and (0, 1).
        """
        def size(p, q):
            return abs(p) + q if self.norm == "l1" else max(abs(p), q)

        w = float(self.omega[1])
        pad = (0,) * (len(self.omega) - 2)
        steps = [(1, -math.log(w), (0, -1) + pad) if w < 1.0 else (1, 0.0, (-1, 0) + pad)]
        (p0, q0), (p1, q1) = (0, 1), (1, 0)
        for (p, q, e), lv in zip(self.convergents, self._conv_log_psi):
            if e is None or e == 0.0:     # exact resonance or unknown terminal
                nxt = (p, q)
                break
            steps.append((size(p, q), lv, min((-p, q), (p, -q)) + pad))
            (p0, q0), (p1, q1) = (p1, q1), (p, q)
        else:
            nxt = (p1 + p0, q1 + q0)      # lower bound for the next convergent
        self._install(((b, lv, math.exp(lv), k) for b, lv, k in steps), size(*nxt) - 1)

    def _install(self, steps, horizon):
        """Keep the strict rises of (ball size, ln Psi, Psi, k) in order of size.

        At equal ball size the sharper value wins.
        """
        breaks, log_psi, values, ks = [], [], [], []
        for b, lv, v, k in steps:
            if log_psi and lv <= log_psi[-1] + 1e-15:
                continue
            if breaks and b == breaks[-1]:
                log_psi[-1], values[-1], ks[-1] = lv, v, k
            else:
                breaks.append(b)
                log_psi.append(lv)
                values.append(v)
                ks.append(k)
        self.breaks, self.log_psi, self.psi_values, self.ks = breaks, log_psi, values, ks
        self.horizon = float(horizon)
        self._at = np.asarray(breaks, dtype=float)
        self._starts = np.log(self._at) + np.asarray(log_psi)  # ln Delta at each break

    def _ensure(self, enough) -> bool:
        """Pull convergents from ``more`` in chunks of 8 until enough()."""
        while not enough() and self.more is not None:
            for (p, q, e, lv) in itertools.islice(self.more(len(self.convergents)), 8):
                self.convergents.append((p, q, e))
                self._conv_log_psi.append(lv)
            self._rebuild()
        return enough()

    def convergent(self, j: int):
        """The j-th convergent (p, q, e) of w, extending a lazy list."""
        if self.convergents is None:
            raise ParameterError("profile carries no convergents")
        if not self._ensure(lambda: j < len(self.convergents)):
            raise ParameterError(f"convergent index {j} out of range")
        return self.convergents[j]

    # -- staircase lookups ---------------------------------------------------

    def _idx(self, Q: float) -> int:
        if not self._ensure(lambda: Q <= self.horizon):
            raise HorizonError(f"Psi horizon {self.horizon:g} < Q={Q:g}")
        return int(np.searchsorted(self._at, Q, side="right") - 1)

    def psi(self, Q: float):
        """(Psi_omega(Q), achieving k) on the staircase."""
        if Q < 1:
            raise ParameterError("psi requires Q >= 1")
        i = self._idx(Q)
        return self.psi_values[i], self.ks[i]

    def log_psi_at(self, Q: float) -> float:
        if Q < 1:
            raise ParameterError("psi requires Q >= 1")
        i = self._idx(Q)   # may extend the list first
        return self.log_psi[i]

    def psi_envelope(self, Q: float) -> float:
        """Continuous nondecreasing envelope with Psi_w(Q) <= env <= Psi_w(Q+1)."""
        i = self._idx(Q)
        if i + 1 < len(self.breaks) and Q > self.breaks[i + 1] - 1:
            t = Q - (self.breaks[i + 1] - 1)
            lo, hi = self.psi_values[i], self.psi_values[i + 1]
            return lo + t * (hi - lo)
        return self.psi_values[i]

    # -- Delta and its generalized inverse ------------------------------------

    def log_delta(self, Q: float) -> float:
        return math.log(Q) + self.log_psi_at(Q)

    def delta(self, Q: float) -> float:
        return math.exp(self.log_delta(Q))

    def delta_star(self, x: float, log: bool = False) -> float:
        """sup { Q >= 1 : Delta(Q) <= x } on the staircase.

        ``log=True`` interprets x as ln(x) (needed once Delta overflows).
        """
        log_x = x if log else math.log(x)
        if log_x < self.log_delta(1.0) - 1e-15:
            raise ParameterError("delta_star argument below Delta(1) = Psi(1)")
        if not self._ensure(lambda: log_x <= math.log(self.horizon) + self.log_psi[-1]):
            raise HorizonError(f"Delta horizon insufficient for ln x = {log_x:g}")
        i = int(np.searchsorted(self._starts, log_x + 1e-15, side="right") - 1)
        log_q_free = log_x - self.log_psi[i]
        if i + 1 < len(self.breaks):
            log_next = math.log(self.breaks[i + 1])
            return math.exp(min(log_q_free, log_next))
        return math.exp(log_q_free)


def _nonresonant_dim(omega) -> int:
    nz = np.flatnonzero(omega != 0.0)
    return int(nz[-1]) + 1 if len(nz) else 0


def profile_from_brute(omega, Q_max: int) -> FrequencyProfile:
    """Profile by exhaustive enumeration up to Q_max (small dimensions)."""
    omega = np.asarray(omega, dtype=float)
    d = _nonresonant_dim(omega)
    vals, ks = psi_brute_table(omega[:d], Q_max)
    pad = (0,) * (len(omega) - d)
    fp = FrequencyProfile(omega=omega, d=d, norm="l1", convergents=None, label="brute")
    fp._install(((Q, math.log(v), float(v), k + pad)
                 for Q, (v, k) in enumerate(zip(vals, ks), 1)), Q_max)
    return fp


def profile_from_cf(omega, n_convergents: int = 64, label: str = "cf") -> FrequencyProfile:
    """Exact profile for omega = (1, w, 0...) via continued fractions of w."""
    omega = np.asarray(omega, dtype=float)
    if abs(omega[0] - 1.0) > 1e-15 or omega[1] <= 0.0:
        raise UnsupportedError("cf profile requires omega = (1, w) with w > 0")
    d = _nonresonant_dim(omega)
    if d != 2:
        raise UnsupportedError("cf profile is exact only for d = 2")
    conv = convergents_of_float(float(omega[1]))[: n_convergents]
    return FrequencyProfile(omega=omega, d=d, norm="l1", convergents=conv, label=label)


def _fibonacci(j: int):
    """Convergents F_{i+2}/F_{i+1} of phi from index i = j on, as (p, q, e, ln Psi).

    e_i = q_i phi - p_i = (-1)^i phi^-(i+1) and ln Psi = (i+1) ln phi exactly;
    -ln|e_i| would miss the latter by an ulp at some i.  e_0 = phi - 1 is the
    exact residual of the double.
    """
    p, q = 1, 1
    for _ in range(j):
        p, q = p + q, p
    log_phi = math.log(GOLDEN)
    for i in itertools.count(j):
        e = GOLDEN - 1.0 if i == 0 else (-1.0) ** i * GOLDEN ** (-(i + 1))
        yield p, q, e, (i + 1) * log_phi
        p, q = p + q, p


def golden_profile() -> FrequencyProfile:
    """omega = (1, phi) with exact Fibonacci convergents, lazy horizon.

    |F_{j+1} phi - F_{j+2}| = phi^-(j+1) exactly, so the staircase extends to
    arbitrary Q without precision loss.  A fresh profile holds j = 0..8
    (l1 horizon 143).
    """
    omega = np.array([1.0, GOLDEN])
    conv = [c[:3] for c in itertools.islice(_fibonacci(0), 9)]
    return FrequencyProfile(omega=omega, d=2, norm="l1", convergents=conv,
                            more=_fibonacci, label="golden")


def profile_linf(fp: FrequencyProfile) -> FrequencyProfile:
    """The same source over |k|_inf <= Q (d = 2 only).

    Breakpoints move from |k|_1 = p_j + q_j to |k|_inf = max(p_j, q_j); this
    is the convention under which the classical convergent sandwiches
    Delta(q_j) ~ 1/eps_j are exact, used by the diffusion constructions.
    """
    if fp.convergents is None or fp.d != 2:
        raise UnsupportedError("linf profile needs convergents and d = 2")
    return FrequencyProfile(omega=fp.omega, d=fp.d, norm="linf",
                            convergents=list(fp.convergents), more=fp.more,
                            label=fp.label + "-linf")


def profile_from_prescribed(convergents,
                            omega_value: Optional[float] = None) -> FrequencyProfile:
    """Profile of omega = (1, w) from externally constructed convergents (p, q, e)."""
    w = omega_value if omega_value is not None else convergents[-1][0] / convergents[-1][1]
    return FrequencyProfile(omega=np.array([1.0, w]), d=2, norm="l1",
                            convergents=list(convergents), label="prescribed")


def named_profile(name: str) -> FrequencyProfile:
    if name == "golden":
        return golden_profile()
    return profile_from_cf(np.array([1.0, named_value(name)]), n_convergents=48, label=name)


# ---------------------------------------------------------------------------
# rational approximations
# ---------------------------------------------------------------------------

@dataclass
class DirichletResult:
    pv: PeriodicVector
    pivot: int
    err: float          # |omega - v|_1
    err_bound: float    # (n-1)/(TQ)
    T_bounds: tuple     # (|omega|^-1, n |omega|^-1 Q^(n-1))


def dirichlet_approx(omega, Q: float) -> DirichletResult:
    """T-periodic v with |omega - v| <= (n-1)/(TQ), T <= n|omega|^-1 Q^{n-1}.

    Factors out a pivot component; the first component is preferred when the
    certified bounds hold for it, otherwise the max-abs component is used.
    """
    omega = np.asarray(omega, dtype=float)
    n = len(omega)
    if np.all(omega == 0.0):
        raise ParameterError("dirichlet_approx requires omega != 0")
    q_cap = int(math.ceil(Q ** (n - 1)))
    if q_cap > 10**7:
        raise BudgetError(f"denominator scan {q_cap} exceeds budget")

    def attempt(pivot):
        # best q in range (smallest max-norm error; smallest q on ties);
        # Dirichlet's box principle guarantees error <= 1/Q somewhere in range
        a = omega[pivot]
        if a == 0.0:
            return None
        x = np.delete(omega, pivot) / a
        best = None
        for q in range(1, q_cap + 1):
            p = np.round(q * x)
            err = float(np.max(np.abs(q * x - p))) if len(x) else 0.0
            if best is None or err < best[0] - 1e-15:
                best = (err, q, p)
        err, q, p = best
        if err > 1.0 / Q + 1e-12:
            return None
        v = np.empty(n)
        v[pivot] = a
        v[np.arange(n) != pivot] = a * p / q
        tv = np.empty(n)
        tv[pivot] = q * np.sign(a)
        tv[np.arange(n) != pivot] = p * np.sign(a)
        g = math.gcd(*(int(round(m)) for m in tv))
        return PeriodicVector(v=tuple(v), T=q / abs(a) / g,
                              Tv=tuple(int(round(m)) // g for m in tv))

    norm1 = float(np.sum(np.abs(omega)))
    norm_inf = float(np.max(np.abs(omega)))
    pivot_max = int(np.argmax(np.abs(omega)))
    order = [0, pivot_max] if (omega[0] != 0.0 and pivot_max != 0) else [pivot_max]
    last = None
    for pivot in order:
        pv = attempt(pivot)
        if pv is None:
            continue
        err = float(np.sum(np.abs(omega - np.asarray(pv.v))))
        bound = (n - 1) / (pv.T * Q)
        # T-bound in the |omega|_inf form (which the pivot construction
        # actually delivers; the l1 statement follows from |w|_1 <= n|w|_inf)
        T_hi = n / norm_inf * Q ** (n - 1)
        res = DirichletResult(pv=pv, pivot=pivot, err=err, err_bound=bound,
                              T_bounds=(1.0 / norm1, T_hi))
        last = res
        if err <= bound + 1e-15 and 1.0 / norm1 - 1e-12 <= pv.T <= T_hi + 1e-12:
            return res
    if last is not None:
        return last
    raise BudgetError("no Dirichlet approximation found within the scan")


@dataclass
class ZBasisResult:
    vectors: list       # n PeriodicVector
    det: int
    c_err: float        # max over j of q_j * Q * |omega - v_j|
    c_den: float        # max over j of q_j / Psi(Q)


def zbasis_approx(fp: FrequencyProfile, Q: float) -> ZBasisResult:
    """n periodic vectors whose integer vectors T_j v_j form a Z-basis.

    n = 2: consecutive convergents of omega_bar (exact, unimodular by the
    classical recurrence).  n = 3: bounded brute force.  n >= 4 is not
    implemented (BF13 gap).
    """
    omega = fp.omega
    n = len(omega)
    if n == 2 or fp.d == 2:
        return _zbasis_convergents(fp, Q)
    if n == 3 and fp.d == 3:
        return _zbasis_brute3(omega, Q)
    raise UnsupportedError("Z-basis approximations implemented for n <= 3 only")


def _zbasis_convergents(fp: FrequencyProfile, Q: float) -> ZBasisResult:
    if fp.convergents is None:
        raise UnsupportedError("profile carries no convergents")
    psi_q = fp.psi(Q)[0]
    fp._ensure(lambda: fp.convergents[-1][1] > psi_q)
    pairs = [(p, q) for (p, q, _e) in fp.convergents]
    w = float(fp.omega[1])
    # largest consecutive pair with both denominators <= Psi(Q)
    j = max((i for i in range(len(pairs) - 1) if pairs[i + 1][1] <= psi_q), default=0)
    sel = [pairs[j], pairs[j + 1]] if j + 1 < len(pairs) else [pairs[j - 1], pairs[j]]
    vecs, cerr, cden = [], 0.0, 0.0
    for (p, q) in sel:
        pv = periodic_from_rational((q, p), q)
        vecs.append(pv)
        cerr = max(cerr, q * Q * abs(w - p / q))
        cden = max(cden, q / psi_q)
    det = sel[0][1] * sel[1][0] - sel[0][0] * sel[1][1]
    if abs(det) != 1:
        raise UnsupportedError(f"consecutive convergents not unimodular: det={det}")
    return ZBasisResult(vectors=vecs, det=int(det), c_err=cerr, c_den=cden)


def _zbasis_brute3(omega, Q):
    w = omega / omega[0]
    cands = []
    for q in range(1, 4001):
        p = np.round(q * w[1:])
        err = float(np.max(np.abs(q * w[1:] - p)))
        cands.append((err * Q * q, q, tuple(int(x) for x in p)))
    cands.sort()
    top = cands[:40]
    for trip in itertools.combinations(top, 3):
        M = np.array([[q, pk[0], pk[1]] for (_s, q, pk) in trip], dtype=object)
        det = int(round(float(np.linalg.det(np.asarray(M, dtype=float)))))
        if abs(det) == 1:
            vecs = [periodic_from_rational((q, pk[0], pk[1]), q) for (_s, q, pk) in trip]
            cerr = max(q * Q * np.sum(np.abs(np.asarray(v.v) - omega / omega[0]))
                       for (_s, q, pk), v in zip(trip, vecs))
            return ZBasisResult(vectors=vecs, det=det, c_err=float(cerr), c_den=math.nan)
    raise BudgetError("no unimodular triple found within budget (BF13 gap)")


# ---------------------------------------------------------------------------
# the dyadic Bruno-Russmann test
# ---------------------------------------------------------------------------

@dataclass
class BRReport:
    verdict: str                # ConvergedWithinBudget | DivergenceDiagnosed | Inconclusive
    Q0: Optional[float]
    sigmas: np.ndarray
    Q_list: np.ndarray
    partial_sums: np.ndarray
    budget: float               # ln 2 / (4n + 2)
    total_with_tail: float
    tail_ratio: float           # late-term ratio sigma_{i+1}/sigma_i
    tail_slope: float           # d ln sigma / d i over the last half
    product_lower: float        # prod (1 - sigma_i)^(2n+1) over computed terms
    notes: str = ""


def _dyadic_sigmas(sp: ScaleProfile, fp: FrequencyProfile, Q0: float, s: float,
                   eta: float, i_max: int, c2: float):
    """sigma_i = C^-1(c2 (1+eta)^-1 s Q_i), Q_i = Delta*(2^i Delta(Q0))."""
    scale = c2 * s / (1.0 + eta)
    log_d0 = fp.log_delta(float(Q0))
    Qs, sigmas = [], []
    for i in range(i_max + 1):
        Qi = float(Q0) if i == 0 else fp.delta_star(log_d0 + i * math.log(2.0), log=True)
        y = scale * Qi
        if y < 1.0:
            sigmas.append(sp.sigma_bar)
        else:
            sigmas.append(sp.cauchy_c_inv(y))
        Qs.append(Qi)
        if sigmas[-1] < 1e-15:
            break
    return np.array(Qs), np.array(sigmas)


def _sum_with_tail(sigmas: np.ndarray):
    total = float(np.sum(sigmas))
    if len(sigmas) < 6:
        return total, math.inf, 0.0
    r = sigmas[1:] / sigmas[:-1]
    tail_r = float(np.max(r[-4:]))
    tail = sigmas[-1] * tail_r / (1.0 - tail_r) if tail_r < 1.0 else math.inf
    half = len(sigmas) // 2
    slope = float(np.polyfit(np.arange(half, len(sigmas)),
                             np.log(sigmas[half:]), 1)[0])
    return total + tail, tail_r, slope


def br_test(sp: ScaleProfile, fp: FrequencyProfile, s: float = 1.0,
            eta: float = 0.0, n: int = 2, i_max: int = 30, c2: float = 1.0) -> BRReport:
    """Dyadic convergence test for the arithmetic condition.

    Searches the minimal Q0 >= n+2 with
        sigma_0 + sum_{i>=1} sigma_i <= ln(2)/(4n+2),
    tail-extrapolated beyond i_max; the search for Q0 gives up beyond 1e9.
    Geometrically decaying sigma_i yield ConvergedWithinBudget; sigma_i ~ 1/i
    (partial sums ~ ln i) yield DivergenceDiagnosed.
    """
    budget = math.log(2.0) / (4.0 * n + 2.0)
    Q0_cap = 1e9
    seqs = {}   # Q0 -> (Q_i, sigma_i): each Q0 of the search is formed once

    def total(Q0):
        seqs[Q0] = _dyadic_sigmas(sp, fp, Q0, s, eta, i_max, c2)
        return _sum_with_tail(seqs[Q0][1])[0]

    lo = hi = n + 2
    while total(hi) > budget and hi < Q0_cap:
        hi *= 2
    Q0 = None
    if hi < Q0_cap:   # total(hi) meets the budget: bisect on (hi/2, hi], or take lo
        a, b = max(hi // 2, lo - 1), hi
        while b - a > 1:
            mid = (a + b) // 2
            if total(mid) <= budget:
                b = mid
            else:
                a = mid
        Q0 = float(b)

    Qs, sig = seqs[lo if Q0 is None else Q0]   # a float key finds its int
    tot, tail_r, slope = _sum_with_tail(sig)
    if Q0 is not None:
        verdict, notes = "ConvergedWithinBudget", ""
    else:
        verdict = "DivergenceDiagnosed" if slope > -0.05 or not math.isfinite(tot) \
            else "Inconclusive"
        notes = f"no Q0 <= {Q0_cap:g} meets the budget"
    prod = float(np.exp((2 * n + 1) * np.sum(np.log1p(-sig))))
    return BRReport(verdict=verdict, Q0=Q0, sigmas=sig, Q_list=Qs,
                    partial_sums=np.cumsum(sig), budget=budget,
                    total_with_tail=tot, tail_ratio=tail_r, tail_slope=slope,
                    product_lower=prod, notes=notes)


# ---------------------------------------------------------------------------
# Liouville-type probes and constructions
# ---------------------------------------------------------------------------

def liouville_probe(sp: ScaleProfile, fp: FrequencyProfile, c_grid,
                    Q_list=None) -> dict:
    """Sampled ln Psi_omega(Q) / Omega(cQ) per c; a diagnostic, not a limit.

    Ratios staying bounded below along a subsequence indicate the
    destruction-condition regime; decay to zero is consistent with the
    cohomological-regularity condition.
    """
    if Q_list is None:
        Q_list = [float(b) for b in fp.breaks[1:]]
    out = {"Q": np.array(Q_list, dtype=float), "ratios": {}, "notes": []}
    for c in c_grid:
        vals = []
        for Q in Q_list:
            num = fp.log_psi_at(Q)
            try:
                den = sp.omega_value(c * Q)
                vals.append(num / den if den > 0 else math.nan)
            except HorizonError:
                vals.append(math.nan)
                out["notes"].append(f"Omega horizon reached at cQ={c*Q:g}")
        arr = np.array(vals)
        fin = arr[np.isfinite(arr)]
        out["ratios"][c] = arr
        out.setdefault("running_max", {})[c] = float(np.max(fin)) if len(fin) else math.nan
        out.setdefault("running_min", {})[c] = float(np.min(fin)) if len(fin) else math.nan
    return out


def liouville_convergents(sp: ScaleProfile, s0: float, n_steps: int,
                          growth=None):
    """Convergents with q_{j+1} = ceil(exp(Omega(4 q_j s0))) (clamped up by
    the CF recurrence), which force the exponential-Liouville condition.

    Returns the convergents j = 1..n of the rational x = [0; a_1, ..., a_n,
    1 x 64] (e exact before rounding, None for the last) and float(x).
    """
    q0, q1 = 0, 1  # start from x in (0,1): a0 = 0
    terms = []
    for _ in range(n_steps):
        # q_{j+1} >= exp(Omega(4 q_j s0)) forces the exponential-Liouville
        # condition; growth is doubly exponential, so the Omega horizon ends
        # the construction after a handful of steps.
        try:
            target = growth(q1) if growth is not None else \
                int(math.ceil(math.exp(sp.omega_value(4.0 * q1 * s0)))) + 1
        except (HorizonError, OverflowError):
            break
        a = max(1, int(math.ceil((target - q0) / q1)))
        terms.append(a)
        q0, q1 = q1, a * q1 + q0
    if not terms:
        raise HorizonError("Omega horizon too small for even one Liouville step")
    # a generic all-ones tail keeps the value irrational so every reported
    # residual satisfies the strict convergent inequalities
    x = Fraction(0)
    for a in reversed(terms + [1] * 64):
        x = 1 / (a + x)
    conv = list(itertools.islice(_convergents(x), 1, len(terms) + 1))
    conv[-1] = conv[-1][:2] + (None,)
    return conv, float(x)
