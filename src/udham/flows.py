"""Time-1 maps and Hamiltonian flows.

Two grades of flow machinery, in decreasing exactness:

* affine generators X = C(theta) + D(theta).I: the angle equation decouples
  and the action equation is linear, so the time-t map has the closed form
  (theta, I) -> (theta + E(theta), A(theta, I)), where E is n angle series
  and A is n series of action degree 1,
  A_i = G_i(theta) + sum_j (delta_ij + F_ij(theta)) I_j.  (E, A) come from
  Lie series on the coordinate functions (exact at truncation, carries
  parameter jets); composing two is one `apply_affine` pullback of the
  outer's 2n components;
* arbitrary generators: Lie series H o Phi = sum ad_Y^r H / r! with a tail
  monitor, cross-validated against grid composition.

Also here: symplectic integrators (leapfrog / Yoshida-4 / implicit
midpoint) and the pendulum rotation-orbit toolbox used by the coupled-map
instability construction.  Its times are integrals of 1/speed, taken by an
adaptive Gauss-Kronrod (10, 21) quadrature (``_quad``), and inverted by
Anderson-Bjorck regula falsi on a sign-changing bracket
(``_regula_falsi``); both use numpy and the standard library only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (LieDivergence, ParameterError, QuadratureError, StiffnessError,
                     TaylorTailError)
from .series import FTSeries, poisson_bracket, product, sum_left_to_right
from .weights import C_NORM, ScaleProfile, log_factorial

TWO_PI = 2.0 * math.pi
# relative l1 bound at which compose_angle's Taylor expansion stops
TAYLOR_TOL = 1e-17


# ---------------------------------------------------------------------------
# affine transforms
# ---------------------------------------------------------------------------

@dataclass
class AffineTransform:
    """(theta, I) -> (theta + E(theta), A(theta, I)).

    E is a list of n angle-only series; A is the action component of the
    map itself, n series of action degree 1,
    A_i = G_i(theta) + sum_j (delta_ij + F_ij(theta)) I_j.  All may carry
    parameter jets.  Closed under composition.
    """

    E: list
    A: list

    @property
    def n(self) -> int:
        return len(self.E)

    @classmethod
    def identity(cls, n, K, n_w=0):
        z = lambda: FTSeries.zeros(n, K, n_w=n_w)
        return cls(E=[z() for _ in range(n)],
                   A=[_action_component(i, z(), []) for i in range(n)])


def _action_component(i, G: FTSeries, F_row: list) -> FTSeries:
    """A_i = G_i + sum_j (delta_ij + F_ij) I_j from angle series G_i and
    F_ij: G's monomials first, then F_i0 ... mapped to I_0 ..., then I_i."""
    n = G.n
    units = [tuple(int(a == j) for a in range(n)) for j in range(n)]
    A = FTSeries.zeros(n, G.K, D_I=1, D_w=G.D_w, n_w=G.n_w) + G
    for j, f in enumerate(F_row):
        A = A + f.map_monomials(lambda m, w, ej=units[j]: [((ej, w), 1.0)], D_I=1)
    return A + FTSeries.zeros(n, G.K, D_I=1, n_w=G.n_w).set_mode((0,) * n, 1.0, m=units[i])


def _collocation_size(K_out):
    """Points per axis of the collocation grid for results truncated to
    K_out: twice the 2 K_out + 1 modes kept."""
    return 2 * (2 * K_out + 1)


def _grid_shift(e: FTSeries, N, alpha=None):
    """Real values of d^alpha (none by default) of the I^0 w^0 block of e on
    the N^n grid, flattened in C order, from `derivative_grid`."""
    key = ((0,) * e.n, (0,) * e.n_w)
    if key not in e.keys:
        return np.zeros(N ** e.n)
    return e.derivative_grid(alpha or (0,) * e.n, N)[e.keys.index(key)].reshape(-1)


def _taylor_order_cap(x: float) -> int:
    """Least order j with e^x x^(j+1)/(j+1)! <= TAYLOR_TOL/2."""
    j, term = 0, x
    while math.exp(x) * term > 0.5 * TAYLOR_TOL:
        j += 1
        term *= x / (j + 1)
    return j


def _nearest_node_taylor(f: FTSeries, N: int, node, delta, sums):
    """Add to acc, for each (beta, rows, acc) of sums, d^beta f on those
    rows of f at theta_node + delta, by Taylor expansion on the uniform N^n
    grid: sum over alpha of d^(alpha+beta) f(theta_node) delta^alpha / alpha!.

    node: flat grid index of each point's expansion node (or a slice);
    delta: (P, n) offsets, |delta_i| <= 1/(2N); acc: (len(rows), P).  The
    order, fixed before any transform, is the least j at which for every
    beta the bound sum_k |c_k| |(2 pi k)^beta| x_k^(j+1) e^(x_k)/(j+1)! on
    the remainder (c_k of all rows, x_k = 2 pi sum_i |k_i| max|delta_i|) is
    at most TAYLOR_TOL times the same sum without the x factor; at the cap,
    where |delta_i| = 1/(2N) would meet it, TaylorTailError.  Then each
    d^gamma f, by |gamma| and then lexicographically, is one inverse FFT of
    the rows that read it, added to every acc with alpha = gamma - beta >= 0,
    |alpha| <= order, and dropped, so each acc gets its terms in (|alpha|,
    lexicographic) order.  Returns (order, [tail bound per sum]).
    """
    n, K = f.n, f.K
    amp = sum(np.abs(b) for b in f.blocks.values())
    k = np.abs(np.stack(np.meshgrid(*([np.arange(-K, K + 1)] * n), indexing="ij")))
    x = TWO_PI * np.tensordot(np.max(np.abs(delta), axis=0), k, axes=1)
    weights = [amp * np.prod([(TWO_PI * ki) ** b for ki, b in zip(k, beta)], axis=0)
               for beta, _, _ in sums]
    tols = [TAYLOR_TOL * np.sum(w) for w in weights]
    cap = _taylor_order_cap(math.pi * n * K / N)
    rem = x * np.exp(x)                       # x^(j+1) e^x / (j+1)! at j = 0
    for order in range(cap + 1):
        tails = [float(np.sum(w * rem)) for w in weights]
        if all(t <= tol for t, tol in zip(tails, tols)):
            break
        rem = rem * x / (order + 2)
    else:
        raise TaylorTailError(f"Taylor tail {max(tails):.3e} after the order cap {cap}")
    top = order + max(sum(beta) for beta, _, _ in sums)
    for gamma in sorted(itertools.product(range(top + 1), repeat=n), key=sum):
        reads = [(alpha, rows, acc) for beta, rows, acc in sums if rows
                 for alpha in [tuple(g - b for g, b in zip(gamma, beta))]
                 if min(alpha) >= 0 and sum(alpha) <= order]
        if not reads:
            continue
        need = sorted(set().union(*(rows for _, rows, _ in reads)))
        grid = f.derivative_grid(gamma, N, need).reshape(len(need), -1)[:, node]
        for alpha, rows, acc in reads:
            mono = np.prod([delta[:, i] ** a / math.factorial(a)
                            for i, a in enumerate(alpha)], axis=0)
            acc += (grid if rows == need else grid[[need.index(r) for r in rows]]) * mono
        del grid                              # not alive while the next one is formed
    return order, tails


def _merge_reports(report: Optional[dict], parts: list):
    """Merge per-series reports: masses and tails summed, largest floor and order."""
    if report is not None:
        report.update({key: sum_left_to_right(p[key] for p in parts)
                       for key in ("aliasing_mass", "pruned_mass", "taylor_tail")},
                      roundoff_floor=max((p["roundoff_floor"] for p in parts), default=0.0),
                      taylor_order=max((p["taylor_order"] for p in parts), default=0))


def compose_angle(fs: list, E0: list, E1: Optional[list] = None,
                  K_out: Optional[int] = None,
                  report: Optional[dict] = None) -> list:
    """[f(theta + E(theta, w), I, w) for f in fs], truncated to K_out (by
    default the largest K in fs).

    E0 is the base shift (n series), E1 an optional list indexed by
    parameter a of first-order jet shifts; the composition is expanded to
    first order in w (jet semantics).  Collocation on the uniform N^n grid,
    N = 2 (2 K_out + 1): the shifts and their nearest nodes come from
    `derivative_grid` once per list; each f, and the gradient that its jets
    read on its blocks with |w| < D_w, are Taylor-expanded about the node
    nearest each shifted point (`_nearest_node_taylor`, Anderson-Dahleh),
    so |delta| <= 1/(2N) for any shift, into one real stack of f's keys and
    then those its jets raise; each jet adds into its rows in place, and
    `from_samples` transforms the stack (real FFT, truncation, floor).
    report, if given, receives the sums over fs of `from_samples`' masses
    and of 'taylor_tail' (the certified bound on the samples' error), the
    largest 'roundoff_floor' and the largest 'taylor_order' reached.
    """
    n, parts = len(E0), []
    K_out = K_out if K_out is not None else max(f.K for f in fs)
    out = [FTSeries.from_blocks(f, {}, K=K_out) for f in fs]
    live = [(r, f) for r, f in enumerate(fs) if f.keys]
    if not live:                              # nothing to compose
        _merge_reports(report, parts)
        return out
    N = _collocation_size(K_out)
    with np.errstate(invalid="ignore", over="ignore"):
        shift = np.stack([_grid_shift(e, N) for e in E0], axis=-1)
    if not np.all(np.isfinite(shift)):
        raise ParameterError("angle shift is not finite")
    steps = np.rint(N * shift)                # grid steps to the nearest node
    delta = shift - steps / N
    if np.any(steps):
        base = np.indices((N,) * n).reshape(n, -1)
        node = np.ravel_multi_index(
            (base + (steps.T % N).astype(np.int64)) % N, (N,) * n)
    else:
        node = slice(None)
    jets = [] if E1 is None else [(a, i, _grid_shift(c, N))
                                  for a, E1a in enumerate(E1)
                                  for i, c in enumerate(E1a) if c is not None]
    axes = sorted({i for _, i, _ in jets})
    betas = [(0,) * n] + [tuple(int(b == i) for b in range(n)) for i in axes]
    for r, f in live:
        # gradients only on the blocks with |w| + 1 <= D_w: no other block's
        # jet survives the truncation
        grad_rows = [q for q, (_, w) in enumerate(f.keys) if sum(w) < f.D_w]
        raised = lambda a: [(m, w[:a] + (w[a] + 1,) + w[a + 1:])
                            for m, w in (f.keys[q] for q in grad_rows)]
        keys = list(dict.fromkeys(list(f.keys) + [key for a, _, _ in jets for key in raised(a)]))
        samples = np.zeros((len(keys), N ** n))
        grads = [np.zeros((len(grad_rows), N ** n)) for _ in axes]
        order, tails = _nearest_node_taylor(
            f, N, node, delta, [(betas[0], list(range(len(f.keys))), samples[:len(f.keys)])]
            + [(beta, grad_rows, g) for beta, g in zip(betas[1:], grads)])
        # first-order jet correction w_a E1^a . grad_theta f at the shifted points
        for a, i, e1v in jets:
            for q, key in enumerate(raised(a)):
                samples[keys.index(key)] += grads[axes.index(i)][q] * e1v
        del grads                             # not alive through the transform
        part = {"taylor_order": order, "taylor_tail": tails[0] + sum_left_to_right(
            float(np.max(np.abs(e1v))) * tails[1 + axes.index(i)] for _, i, e1v in jets)}
        out[r] = FTSeries.from_samples(f, keys, samples, N, report=part, K=K_out)
        parts.append(part)
    _merge_reports(report, parts)
    return out


def _jet_shift_components(E: list):
    """Split jet series E_i(theta, w) into base and first-order lists."""
    n_w = E[0].n_w
    if n_w == 0 or E[0].D_w == 0:
        return E, None
    w0 = (0,) * n_w
    part = lambda e, wa: e.map_monomials(lambda m, w: [((m, w0), 1.0)] if w == wa else [],
                                         D_w=0)
    first = [[c if c.blocks else None for c in (part(e, u) for e in E)]
             for u in (w0[:a] + (1,) + w0[a + 1:] for a in range(n_w))]
    return [part(e, w0) for e in E], first


def apply_affine(Hs: list, tr: AffineTransform, K_out: Optional[int] = None,
                 report: Optional[dict] = None) -> list:
    """Pull back each H of Hs by the affine transform, H(theta + E, A(theta,
    I)), at H's own action degree and at K_out (by default the largest K);
    adds no floor.  One `compose_angle` call serves the whole list, and each
    power A^m is formed once; report, if given, receives that call's report."""
    n = tr.n
    K_out = K_out if K_out is not None else max(H.K for H in Hs)
    ident = AffineTransform.identity(n, 0, n_w=tr.E[0].n_w).A
    if (all(e.coeff_norm1() == 0.0 for e in tr.E)
            and all((a - u).coeff_norm1() == 0.0 for a, u in zip(tr.A, ident))):
        _merge_reports(report, [])            # the identity composes nothing
        return [H.rebanded(K_out) for H in Hs]
    base, first = _jet_shift_components(tr.E)
    composed = compose_angle(Hs, base, first, K_out=K_out, report=report)
    # the substitution polynomials are A itself at K_out: A acts at the
    # preimage theta, so no angle composition here
    A = [a.rebanded(K_out) for a in tr.A]
    powers = {}           # freed on return: lpow loops, a recursive closure would be a cycle

    def lpow(m, D_I, D_w):       # A^m at degree D_I, with jets to D_w if that is higher
        key = (m, D_I, D_w)
        if key not in powers:
            L = [FTSeries.zeros(n, K_out, D_I=1, D_w=D_w, n_w=a.n_w) + a for a in A]
            cur = None
            for i, mi in enumerate(m):
                for _ in range(mi):
                    cur = L[i] if cur is None else product(cur, L[i], K_out=K_out, D_I_out=D_I)
            powers[key] = cur
        return powers[key]

    out = []
    for H, G in zip(Hs, composed):
        acc = FTSeries.from_blocks(H, {}, K=K_out)
        # each monomial h(theta + E) I^m w^w of G becomes h(theta + E) w^w A^m
        for m, w in G.keys:
            piece = G.map_monomials(lambda m2, w2, src=(m, w): [(((0,) * n, w2), 1.0)]
                                    if (m2, w2) == src else [], D_I=0)
            acc = acc + (piece if sum(m) == 0 else product(
                piece, lpow(m, H.D_I, H.D_w), K_out=K_out, D_I_out=H.D_I))
        out.append(acc)
    return out


def jet_param_substitute(f: FTSeries, shift, matrix) -> FTSeries:
    """Substitute the parameter jet w -> shift + matrix.w (degree-1 jets).

    Used to pull back omega-dependence through a frequency map phi:
    shift = phi_0 - omega_0 and matrix = Dphi."""
    if any(sum(w) > 1 for _, w in f.blocks):
        raise ParameterError("jet substitution implemented for D_w <= 1")
    shift = np.asarray(shift, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    w0 = (0,) * f.n_w
    units = [tuple(int(x == b) for x in range(f.n_w)) for b in range(f.n_w)]

    def rule(m, w):
        if sum(w) == 0:
            return [((m, w0), 1.0)]
        a = int(np.argmax(w))
        return [((m, w0), shift[a])] + [((m, units[b]), matrix[a, b])
                                        for b in range(f.n_w) if matrix[a, b] != 0.0]

    return f.map_monomials(rule).prune()


def compose_affine(outer: AffineTransform, inner: AffineTransform,
                   K_out: Optional[int] = None, phi_shift=None,
                   phi_matrix=None) -> AffineTransform:
    """outer o inner, again affine: with V = theta + E_in,

        E = E_in + E_out o V,   A = A_out(V, A_in),

    one pullback (``apply_affine``) of the outer's 2n components by inner;
    if a parameter map is supplied the outer's jets are first pulled back
    through it."""
    K_out = K_out if K_out is not None else max(outer.E[0].K, inner.E[0].K)
    parts = outer.E + outer.A
    if phi_shift is not None:
        parts = [jet_param_substitute(f, phi_shift, phi_matrix) for f in parts]
    pulled = apply_affine(parts, inner, K_out=K_out)
    return AffineTransform(E=[e.rebanded(K_out) + p for e, p in zip(inner.E, pulled)],
                           A=pulled[outer.n:])


def affine_flow_lie(C: FTSeries, D: list, t: float = 1.0,
                    K_out: Optional[int] = None) -> AffineTransform:
    """Affine flow by Lie series on the coordinate functions.

    With X = C + sum_j D_j I_j and ad f = {f, X}: ad theta_i = D_i, so
    E_i = sum_{r>=1} t^r/r! ad^(r-1) D_i, and A_i = I_i o Phi is the Lie
    series of I_i.  Both run on `lie_flow`'s loop, whose brackets prune
    at `product`'s round-off floor.  Carries parameter jets.
    """
    n = C.n
    K_out = K_out if K_out is not None else max([C.K] + [d.K for d in D])
    units = [tuple(int(a == j) for a in range(n)) for j in range(n)]
    X = C
    for j, d in enumerate(D):
        X = X + d.map_monomials(lambda m, w, ej=units[j]: [((ej, w), 1.0)], D_I=1)
    E = [_lie_series(X, d, t, 1, K_out=K_out, D_I_out=0) for d in D]
    I = [FTSeries.zeros(n, K_out, D_I=1, D_w=C.D_w, n_w=C.n_w).set_mode((0,) * n, 1.0, m=u)
         for u in units]
    A = [lie_flow(X, Ii, t, K_out=K_out, D_I_out=1) for Ii in I]
    return AffineTransform(E=E, A=A)


# ---------------------------------------------------------------------------
# general Lie flow
# ---------------------------------------------------------------------------

def lie_flow(Y: FTSeries, H: FTSeries, t: float = 1.0, max_order: int = 40,
             K_out: Optional[int] = None, D_I_out: Optional[int] = None) -> FTSeries:
    """H o Phi_Y^t = sum_r (t^r/r!) ad_Y^r H at truncation.

    The tail is monitored; if term norms grow for three consecutive orders
    before falling below 1e-16 |H| the series is declared divergent.
    """
    return _lie_series(Y, H, t, 0, max_order, K_out, D_I_out)


def _lie_series(Y: FTSeries, H: FTSeries, t: float, r0: int, max_order: int = 40,
                K_out: Optional[int] = None, D_I_out: Optional[int] = None,
                start: Optional[FTSeries] = None,
                scale: Optional[float] = None) -> FTSeries:
    """sum_{r>=0} t^(r+r0)/(r+r0)! ad_Y^r H, ad f = {f, Y}, r0 in {0, 1},
    with `lie_flow`'s tail monitor relative to ``scale`` (default |H|).
    A ``start`` replaces the r = 0 term, which then only meets the tail
    test: below it, no bracket is formed."""
    K_out = K_out if K_out is not None else max(Y.K, H.K)
    D_I_out = D_I_out if D_I_out is not None else max(H.D_I, Y.D_I)
    fac = t if r0 else 1.0
    norm = H.coeff_norm1()
    scale = max(norm if scale is None else scale, 1e-300)
    if start is not None and abs(fac) * norm < 1e-16 * scale:
        return start.prune()
    out = start if start is not None else fac * H if r0 else H
    term = H
    grow = 0
    last = math.inf
    for r in range(1, max_order + 1):
        term = poisson_bracket(term, Y, K_out=K_out, D_I_out=D_I_out)
        fac = fac * t / (r + r0)
        out = out + fac * term
        size = abs(fac) * term.coeff_norm1()
        if size < 1e-16 * scale:
            return out.prune()
        if size > last:
            grow += 1
            if grow >= 3:
                raise LieDivergence(
                    f"Lie tail growing at order {r} (term {size:.3e})")
        else:
            grow = 0
        last = size
    if size > 1e-9 * scale:
        raise LieDivergence(f"Lie tail {size:.3e} after {max_order} orders")
    return out.prune()


# ---------------------------------------------------------------------------
# numeric integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    thetas: np.ndarray
    actions: np.ndarray


_Y4_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y4_W0 = 1.0 - 2.0 * _Y4_W1


def _leapfrog(theta, I, dt, grad_v):
    I = I - 0.5 * dt * grad_v(theta)
    theta = theta + dt * I
    I = I - 0.5 * dt * grad_v(theta)
    return theta, I


def _yoshida4(theta, I, dt, grad_v):
    for w in (_Y4_W1, _Y4_W0, _Y4_W1):
        theta, I = _leapfrog(theta, I, w * dt, grad_v)
    return theta, I


def integrate_midpoint(grad_theta: Callable, grad_I: Callable, theta0, I0,
                       t_end: float, dt: float = 1e-2,
                       sample_every: int = 1) -> Trajectory:
    """Implicit midpoint by fixed-point iteration (symplectic, 2nd order)."""
    n_steps = int(round(t_end / dt))
    theta = np.asarray(theta0, dtype=float).copy()
    I = np.asarray(I0, dtype=float).copy()
    ts, ths, Is = [0.0], [theta.copy()], [I.copy()]
    for step in range(1, n_steps + 1):
        th_new, I_new = theta, I
        for it in range(60):
            th_mid = 0.5 * (theta + th_new)
            I_mid = 0.5 * (I + I_new)
            th_next = theta + dt * grad_I(th_mid, I_mid)
            I_next = I - dt * grad_theta(th_mid, I_mid)
            delta = np.max(np.abs(th_next - th_new)) + np.max(np.abs(I_next - I_new))
            th_new, I_new = th_next, I_next
            if delta < 1e-13:
                break
        else:
            raise StiffnessError(f"midpoint fixed point stalled at step {step}")
        theta, I = th_new, I_new
        if step % sample_every == 0 or step == n_steps:
            ts.append(step * dt)
            ths.append(theta.copy())
            Is.append(I.copy())
    return Trajectory(times=np.array(ts), thetas=np.array(ths), actions=np.array(Is))


# ---------------------------------------------------------------------------
# pendulum rotation orbits
# ---------------------------------------------------------------------------

# Gauss-Kronrod (10, 21) on [-1, 1], the pair of QUADPACK's qk21: the 21
# Kronrod nodes contain the 10 Gauss nodes (every second one from the end).
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600525478311, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
GK_NODES = np.array([-x for x in _XGK] + list(_XGK[-2::-1]))
GK_KRONROD = np.array(_WGK + _WGK[-2::-1])
GK_GAUSS = np.zeros(21)
GK_GAUSS[1:10:2] = _WG
GK_GAUSS[11:20:2] = _WG[::-1]


QUAD_EPSABS, QUAD_EPSREL = 1e-15, 1e-13
ROOT_RTOL = 4 * np.finfo(float).eps


def _quad(f: Callable, a: float, b: float, limit: int = 100) -> float:
    """int_a^b f(x) dx for f vectorized over an array of abscissae.

    Each panel gets the 21-point Kronrod value K and the 10-point Gauss
    value G, and |K - G| stands as its error.  Until those errors sum to
    at most max(QUAD_EPSABS, QUAD_EPSREL |I|), every panel whose error
    exceeds its length's share of that tolerance is bisected, all in one
    vectorized round; the sum stops once no panel exceeds its share (the
    tolerance follows |I| as it settles), and past ``limit`` panels
    QuadratureError is raised.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    done, done_err, panels = 0.0, 0.0, 1
    while True:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f(mid[:, None] + half[:, None] * GK_NODES)
        k = half * (fx @ GK_KRONROD)
        err = np.abs(k - half * (fx @ GK_GAUSS))
        total = done + float(np.sum(k))
        tol = max(QUAD_EPSABS, QUAD_EPSREL * abs(total))
        if done_err + float(np.sum(err)) <= tol:
            return total
        split = err > tol * np.abs(hi - lo) / abs(b - a)
        if not split.any():
            return total
        done += float(np.sum(k[~split]))
        done_err += float(np.sum(err[~split]))
        panels += int(np.count_nonzero(split))
        if panels > limit:
            raise QuadratureError(f"quadrature on [{a}, {b}] needs more than {limit} panels")
        lo = np.concatenate([lo[split], mid[split]])
        hi = np.concatenate([mid[split], hi[split]])


def _regula_falsi(f: Callable, a: float, b: float, xtol: float) -> float:
    """Root of f between a and b, where f(a) and f(b) differ in sign.

    Regula falsi in the Anderson-Bjorck form: b is the newest point and a
    the other end of the bracket.  When the new point lands on b's side, a
    is kept and f(a) is scaled by 1 - f(new)/f(b) (by 1/2 if that is not
    positive, the Illinois rule), so a kept end cannot stall the bracket.
    Stops once the bracket is narrower than xtol + ROOT_RTOL |b|, as brentq
    does.  A bracket without a sign change, or still open after 100 steps,
    raises QuadratureError.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise QuadratureError(f"no sign change of f on [{a}, {b}]")
    for _ in range(100):
        if fb == 0.0 or abs(b - a) <= xtol + ROOT_RTOL * abs(b):
            return b
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if (fc > 0.0) != (fb > 0.0):
            a, fa = b, fb
        else:
            m = 1.0 - fc / fb
            fa *= m if m > 0.0 else 0.5
        b, fb = c, fc
    raise QuadratureError(f"root bracket [{a}, {b}] not closed in 100 steps")


VARTHETA = -0.5 + (2.0 / math.pi) * math.atan(math.exp(math.pi))
# tau_norm_certificate's Cauchy radius, below the margin 1/2 - VARTHETA
TAU_CAUCHY_RADIUS = 0.02


@dataclass
class PendulumOrbit:
    """Rotation orbit of P = I^2/2 - cos(2 pi theta) through (0, I_B).

    I_B - 2 = eps = 16 e^{-2 pi B}(1 + o(1)) is exponentially small in the
    period, far below double resolution of I_B itself, so eps is the
    primary datum (log_eps once even eps underflows) and
    speed^2 = 4 cos^2(pi theta) + a2 with a2 = 4 eps + eps^2 is formed
    without cancellation.  For underflowed eps the orbit data coincide with
    the separatrix on the angular window used by the constructions.
    """

    B: float
    eps: float
    log_eps: Optional[float] = None

    @property
    def I_B(self) -> float:
        return 2.0 + self.eps

    @property
    def a2(self) -> float:
        return 4.0 * self.eps + self.eps ** 2

    def speed(self, theta):
        return np.sqrt(4.0 * np.cos(math.pi * np.asarray(theta)) ** 2 + self.a2)

    def tau(self, theta: float) -> float:
        """Time from theta = 0 along the orbit; odd, tau(1/2) = B/2."""
        if theta == 0.0:
            return 0.0
        sgn = 1.0 if theta > 0 else -1.0
        th = abs(theta)
        if th > 0.5:
            raise ParameterError("tau is defined on [-1/2, 1/2]")
        u_lo = 0.5 - th
        direct_hi = min(th, 0.25)
        val = _quad(lambda x: 1.0 / self.speed(x), 0.0, direct_hi)
        if th > 0.25:
            val += _sinh_piece(self.a2, u_lo, 0.25)
        return sgn * val

    def theta_of_t(self, t: float) -> float:
        """theta_B(t) in (-1/2, 1/2], inverting tau over one winding."""
        tm = t % self.B
        if tm > self.B / 2.0:
            return -self.theta_of_t(self.B - tm)
        if tm == 0.0:
            return 0.0
        half = self.B / 2.0
        if tm >= half:
            return 0.5
        hi, tau_hi = self._bracket_end
        if tm >= tau_hi:
            return 0.5
        return _regula_falsi(lambda x: self.tau(x) - tm, 0.0, hi, xtol=1e-15)

    @cached_property
    def _bracket_end(self) -> tuple[float, float]:
        """(hi, tau(hi)) for hi = 1/2, or 1/2 - 1e-12 on the separatrix.

        Later times map to theta = 1/2: on the separatrix tau diverges at
        1/2, and on a rotation orbit tau(1/2) may fall short of B/2 by
        round-off."""
        hi = 0.5 if self.a2 > 0.0 else 0.5 - 1e-12
        return hi, self.tau(hi)


def _sinh_piece(a2: float, u_lo: float, u_hi: float) -> float:
    """int_{u_lo}^{u_hi} du / sqrt(4 sin^2(pi u) + a2).

    The substitution u = (a/2pi) sinh(t) flattens the 1/(2 pi u) tail into
    an O(1) smooth integrand on a logarithmic-length interval, which keeps
    the quadrature stable down to a ~ 1e-150.  At a2 = 0 (separatrix data,
    u_lo > 0 required) the log substitution u = e^v takes over.
    """
    if u_hi <= u_lo:
        return 0.0
    if a2 == 0.0:
        if u_lo <= 0.0:
            raise ParameterError("separatrix integrand diverges at u = 0")

        def h0(v):
            u = np.exp(v)
            return u / (2.0 * np.sin(math.pi * u))

        return _quad(h0, math.log(u_lo), math.log(u_hi), limit=200)
    a = math.sqrt(a2)
    t_lo = math.asinh(TWO_PI * u_lo / a)
    t_hi = math.asinh(TWO_PI * u_hi / a)

    def h(t):
        u = (a / TWO_PI) * np.sinh(t)
        return (a / TWO_PI) * np.cosh(t) / np.sqrt(4.0 * np.sin(math.pi * u) ** 2 + a2)

    return _quad(h, t_lo, t_hi, limit=200)


def pendulum_period_of_eps(eps: float) -> float:
    """Winding time 2 tau(1/2) of the rotation orbit with I_B = 2 + eps."""
    if eps <= 0:
        raise ParameterError("rotation orbits require eps > 0")
    # tau does not read the period B, which is what is sought here
    return 2.0 * PendulumOrbit(B=math.nan, eps=eps).tau(0.5)


def pendulum_periodic_point(B: float) -> PendulumOrbit:
    """The unique rotation orbit of period exactly B.

    Root-finds log(eps) for moderate B; past B ~ 100 the separatrix
    asymptotics eps_B = 16 e^{-2 pi B} is already exact to double
    precision (its relative correction is O(e^{-2 pi B})) and eventually
    the only representable description."""
    if B < 3:
        raise ParameterError("B >= 3 required")
    log_eps = math.log(16.0) - TWO_PI * B
    if B > 100.0:
        eps = math.exp(log_eps) if log_eps > -700.0 else 0.0
        return PendulumOrbit(B=float(B), eps=eps, log_eps=log_eps)
    f = lambda x: pendulum_period_of_eps(math.exp(x)) - B
    x = _regula_falsi(f, -700.0, math.log(5.0), xtol=1e-13)
    return PendulumOrbit(B=float(B), eps=math.exp(x), log_eps=x)


def tau_norm_certificate(orbit: PendulumOrbit, sp: ScaleProfile, s: float) -> float:
    """Certified upper bound for |tau_B|_{M,s} on [-vartheta, vartheta].

    tau_B' = 1/speed is analytic in a strip whose width is uniform in B:
    the complex turning points sit over theta = 1/2 +- i y_B, a distance
    > 1/2 - vartheta from the window.  Cauchy estimates off circles of
    radius r = 0.02 (256 points each) bound every derivative, giving
        c * max( sup|tau|, sup_{1<=l<=120} (l+1)^2 s^l (l-1)! Mg r^{1-l} / M_l ).
    """
    radius, l_cap = TAU_CAUCHY_RADIUS, 120
    xs = np.linspace(-VARTHETA, VARTHETA, 41)
    ang = np.exp(2j * math.pi * np.arange(256) / 256)
    Mg = 0.0
    for x0 in xs:
        z = x0 + radius * ang
        g = 1.0 / np.sqrt(4.0 * np.cos(math.pi * z) ** 2 + orbit.a2)
        Mg = max(Mg, float(np.max(np.abs(g))))
    sup_tau = abs(orbit.tau(VARTHETA))
    l = np.arange(1, l_cap + 1, dtype=float)
    log_terms = (2.0 * np.log(l + 1.0) + l * math.log(s) + log_factorial(l_cap)
                 + math.log(Mg) + (1.0 - l) * math.log(radius)
                 - sp.ws.log_M[1:l_cap + 1])
    return C_NORM * max(sup_tau, float(np.exp(np.max(log_terms))))


def pendulum_time1_map(I_scale: float = 1.0, rtol: float = 1e-12):
    """Time-1 map of I^2/2 + I_scale^{-2} V(theta), V = -cos(2 pi theta).

    Uses the rescaling Phi^{P_A} = sigma_A^{-1} Phi_{1/A}^P sigma_A and a
    fixed-step Yoshida-4 pendulum flow (step chosen from rtol)."""
    A = I_scale

    def grad_v(theta):
        return TWO_PI * np.sin(TWO_PI * theta)

    def flow(theta, I):
        th = np.asarray(theta, dtype=float)
        J = np.asarray(I, dtype=float) * A
        t = 1.0 / A
        dt = min(1e-2, (rtol ** 0.25) / 4.0)
        n = max(1, int(math.ceil(t / dt)))
        h = t / n
        for _ in range(n):
            th, J = _yoshida4(th, J, h, grad_v)
        return th, J / A

    return flow
