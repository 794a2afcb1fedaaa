"""Time-1 maps and Hamiltonian flows.

Three grades of flow machinery, in decreasing exactness:

* angle-only generators u(theta): the flow is the exact shear
  (theta, I) -> (theta, I - t grad u(theta));
* affine generators X = C(theta) + D(theta).I: the angle equation decouples
  and the action equation is linear, so the time-t map has the closed form
  (theta, I) -> (theta + E(theta), A(theta, I)), where E is n angle series
  and A is n series of action degree 1,
  A_i = G_i(theta) + sum_j (delta_ij + F_ij(theta)) I_j.  (E, A) come either
  from per-grid-point ODE integration (collocation) or from Lie series on
  the coordinate functions (exact at truncation, carries parameter jets);
  composing two such maps is one pullback of the outer's components;
* arbitrary generators: Lie series H o Phi = sum ad_Y^r H / r! with a tail
  monitor, cross-validated against grid composition.

Also here: symplectic integrators (leapfrog / Yoshida-4 / implicit
midpoint) and the pendulum rotation-orbit toolbox used by the coupled-map
instability construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .series import FTSeries, poisson_bracket, product
from .weights import C_NORM, ParameterError, ScaleProfile

TWO_PI = 2.0 * math.pi
# absolute floor below which a finished coordinate series of a Lie flow
# stores no coefficient
_NOISE_FLOOR = 1e-18
# relative l1 bound at which compose_angle's Taylor expansion stops
TAYLOR_TOL = 1e-17


class LieDivergence(RuntimeError):
    """Lie-series tail stopped decreasing before the tolerance was met."""


class TaylorTailError(RuntimeError):
    """Taylor tail of an angle composition not met by the order cap."""


class StiffnessError(RuntimeError):
    """Integrator step-size underflow."""


# ---------------------------------------------------------------------------
# exact shear for angle-only generators
# ---------------------------------------------------------------------------

def angle_flow(u: FTSeries, t: float = 1.0):
    """Exact time-t map of an angle-only Hamiltonian u(theta).

    Angles are frozen and I -> I - t grad u(theta); the map is exactly
    symplectic (a shear).  Returns a callable (theta, I) -> (theta, I').
    """
    for (m, w) in u.blocks:
        if sum(m) != 0:
            raise ParameterError("angle_flow requires an angle-only generator")
    grads = u.grad_theta()

    def flow(theta, I):
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        I = np.atleast_2d(np.asarray(I, dtype=float))
        kick = np.stack([g.eval(theta) for g in grads], axis=-1)
        return theta, I - t * kick

    return flow


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

    def apply(self, theta, I, w=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        I = np.atleast_2d(np.asarray(I, dtype=float))
        Ev = np.stack([e.eval(theta, w=w) for e in self.E], axis=-1)
        Av = np.stack([a.eval(theta, I=I, w=w) for a in self.A], axis=-1)
        return theta + Ev, Av

    def jacobian_defect(self, rng=None, n_pts=64, h=1e-6):
        """Max |det DPhi - 1| over random points (symplecticity probe)."""
        rng = rng or np.random.default_rng(0)
        n = self.n
        pts_th = rng.uniform(size=(n_pts, n))
        pts_I = rng.uniform(-0.3, 0.3, size=(n_pts, n))
        worst = 0.0
        for p in range(n_pts):
            z0 = np.concatenate([pts_th[p], pts_I[p]])
            Jac = np.zeros((2 * n, 2 * n))
            for j in range(2 * n):
                zp, zm = z0.copy(), z0.copy()
                zp[j] += h
                zm[j] -= h
                tp, ip = self.apply(zp[:n], zp[n:])
                tm, im = self.apply(zm[:n], zm[n:])
                Jac[:, j] = (np.concatenate([tp[0], ip[0]])
                             - np.concatenate([tm[0], im[0]])) / (2 * h)
            worst = max(worst, abs(np.linalg.det(Jac) - 1.0))
        return worst


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


def _collocation_grid(n, K_out):
    """Uniform collocation grid, flattened in C order (N^n, n)."""
    N = _collocation_size(K_out)
    axes = [np.arange(N) / N] * n
    return N, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def _grid_shift(e: FTSeries, N):
    """Real values of the w-degree-0 block of an angle shift on the N^n grid."""
    vals = e.grid_values(N).get(((0,) * e.n, (0,) * e.n_w))
    return np.zeros(N ** e.n) if vals is None else vals.real.reshape(-1)


def _taylor_order_cap(x: float) -> int:
    """Least order j with e^x x^(j+1)/(j+1)! <= TAYLOR_TOL/2."""
    j, term = 0, x
    while math.exp(x) * term > 0.5 * TAYLOR_TOL:
        j += 1
        term *= x / (j + 1)
    return j


def _multi_indices(n, j):
    """Every alpha in N^n with |alpha| = j."""
    return [a for a in itertools.product(range(j + 1), repeat=n) if sum(a) == j]


def _nearest_node_taylor(f: FTSeries, N: int, node, delta, betas):
    """d^beta f at theta_node + delta for each beta, by Taylor expansion on
    the uniform N^n grid: sum over alpha of d^(alpha+beta) f(theta_node)
    delta^alpha / alpha!, each d^gamma f grid from one inverse FFT.

    node: flat grid index of each point's expansion node (or a slice);
    delta: (P, n) offsets, |delta_i| <= 1/(2N).  Orders are added until, for
    every beta, the bound sum_k |c_k| |(2 pi k)^beta| x_k^(j+1) e^(x_k)/(j+1)!
    on the remainder (x_k = 2 pi sum_i |k_i| max|delta_i|) is at most
    TAYLOR_TOL times the same sum without the x factor.  The order cap is
    where |delta_i| = 1/(2N) would meet that bound; reaching it raises
    TaylorTailError.  Returns ([(len(keys), P) values per beta], order,
    [tail bound per beta]).
    """
    n, K = f.n, f.K
    amp = sum(np.abs(b) for b in f.blocks.values())
    k = np.abs(np.stack(np.meshgrid(*([np.arange(-K, K + 1)] * n), indexing="ij")))
    x = TWO_PI * np.tensordot(np.max(np.abs(delta), axis=0), k, axes=1)
    weights = [amp * np.prod([(TWO_PI * ki) ** b for ki, b in zip(k, beta)], axis=0)
               for beta in betas]
    tols = [TAYLOR_TOL * np.sum(w) for w in weights]
    cap = _taylor_order_cap(math.pi * n * K / N)
    grids = {}

    def grid(gamma):
        if gamma not in grids:
            grids[gamma] = f.derivative_grid(gamma, N).reshape(len(f.keys), -1)[:, node]
        return grids[gamma]

    vals = [0.0] * len(betas)
    rem = x * np.exp(x)                       # x^(j+1) e^x / (j+1)! at j = 0
    for j in range(cap + 1):
        for alpha in _multi_indices(n, j):
            mono = np.prod([delta[:, i] ** a / math.factorial(a)
                            for i, a in enumerate(alpha)], axis=0)
            for b, beta in enumerate(betas):
                vals[b] = vals[b] + grid(tuple(a + c for a, c in zip(alpha, beta))) * mono
        for gamma in [g for g in grids if sum(g) <= j]:
            del grids[gamma]
        tails = [float(np.sum(w * rem)) for w in weights]
        if all(t <= tol for t, tol in zip(tails, tols)):
            return vals, j, tails
        rem = rem * x / (j + 2)
    raise TaylorTailError(f"Taylor tail {max(tails):.3e} after the order cap {cap}")


def compose_angle(f: FTSeries, E0: list, E1: Optional[list] = None,
                  K_out: Optional[int] = None,
                  report: Optional[dict] = None) -> FTSeries:
    """f(theta + E(theta, w), I, w) truncated back to K_out.

    E0 is the base shift (n series), E1 an optional list indexed by
    parameter a of first-order jet shifts; the composition is expanded to
    first order in w (jet semantics).  Collocation on the uniform N^n grid,
    N = 2 (2 K_out + 1): the shifts come from `grid_values`; f and the
    gradient the jets need are Taylor-expanded about the grid node nearest
    each shifted point (`_nearest_node_taylor`, Anderson-Dahleh), so
    |delta| <= 1/(2N) for any shift; then FFT and truncate.
    report, if given, receives 'aliasing_mass' (from `from_samples`),
    'taylor_order', the highest order added, and 'taylor_tail', the
    certified bound on the samples' error summed over blocks.
    """
    n = f.n
    K_out = K_out if K_out is not None else f.K
    if not f.keys:
        if report is not None:
            report.update(aliasing_mass=0.0, taylor_order=0, taylor_tail=0.0)
        return FTSeries.from_blocks(f, {}, K=K_out)
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
    units = [tuple(int(b == i) for b in range(n)) for i in axes]
    vals, order, tails = _nearest_node_taylor(f, N, node, delta, [(0,) * n] + units)
    acc = dict(zip(f.keys, vals[0]))
    # first-order jet correction w_a E1^a . grad_theta f at the shifted
    # points; only blocks with |w| + 1 <= D_w survive the jet truncation
    for a, i, e1v in jets:
        grad = vals[1 + axes.index(i)]
        for (m, w), v in zip(f.keys, grad):
            if sum(w) < f.D_w:
                key = (m, w[:a] + (w[a] + 1,) + w[a + 1:])
                acc[key] = acc.get(key, 0.0) + v * e1v
    if report is not None:
        report["taylor_order"] = order
        report["taylor_tail"] = tails[0] + sum(
            float(np.max(np.abs(e1v))) * tails[1 + axes.index(i)] for _, i, e1v in jets)
    return FTSeries.from_samples(f, acc, N, report=report, K=K_out)


def _jet_shift_components(E: list):
    """Split jet series E_i(theta, w) into base and first-order lists."""
    n_w = E[0].n_w
    if n_w == 0 or E[0].D_w == 0:
        return E, None
    w0 = (0,) * n_w

    def coefficient(e, wa):
        return e.map_monomials(lambda m, w: [((m, w0), 1.0)] if w == wa else [], D_w=0)

    units = [tuple(int(b == a) for b in range(n_w)) for a in range(n_w)]
    first = [[c if c.blocks else None for c in (coefficient(e, u) for e in E)]
             for u in units]
    return [coefficient(e, w0) for e in E], first


def apply_affine(H: FTSeries, tr: AffineTransform, K_out: Optional[int] = None,
                 D_I_out: Optional[int] = None,
                 report: Optional[dict] = None) -> FTSeries:
    """Pull back H by the affine transform: H(theta + E, A(theta, I))."""
    n = H.n
    K_out = K_out if K_out is not None else H.K
    D_I_out = D_I_out if D_I_out is not None else H.D_I
    zero = (0,) * n
    ident = AffineTransform.identity(n, 0, n_w=H.n_w).A
    if (all(e.coeff_norm1() == 0.0 for e in tr.E)
            and all((a - u).coeff_norm1() == 0.0 for a, u in zip(tr.A, ident))):
        out = H.rebanded(K_out)
        if report is not None:
            report.update(aliasing_mass=0.0, taylor_order=0, taylor_tail=0.0)
        return out
    base, first = _jet_shift_components(tr.E)
    scale = max(H.sup_coeff(), 1.0)
    Hs = compose_angle(H, base, first, K_out=K_out, report=report)
    Hs = Hs.prune_entries(1e-17 * scale)
    # the substitution polynomials are A itself (at K_out, truncating jets
    # at H's degree if that is higher): A acts at the preimage theta, so no
    # angle composition here
    L = [FTSeries.zeros(n, K_out, D_I=1, D_w=H.D_w, n_w=H.n_w) + a.rebanded(K_out)
         for a in tr.A]
    out = FTSeries.from_blocks(H, {}, K=K_out, D_I=D_I_out)
    powers = {}

    def lpow(m):
        m = tuple(m)
        if m in powers:
            return powers[m]
        cur = None
        for i, mi in enumerate(m):
            for _ in range(mi):
                cur = L[i] if cur is None else product(cur, L[i], K_out=K_out,
                                                       D_I_out=D_I_out)
        powers[m] = cur
        return cur

    # each monomial h(theta + E) I^m w^w of Hs becomes h(theta + E) w^w L^m
    for m, w in Hs.blocks:
        piece = Hs.map_monomials(lambda mm, ww, key=(m, w): [((zero, ww), 1.0)]
                                 if (mm, ww) == key else [], D_I=0)
        out = out + (piece if sum(m) == 0 else
                     product(piece, lpow(m), K_out=K_out, D_I_out=D_I_out))
    return out.prune_entries(1e-17 * scale)


def jet_param_substitute(f: FTSeries, shift, matrix) -> FTSeries:
    """Substitute the parameter jet w -> shift + matrix.w (degree-1 jets).

    Used to pull back omega-dependence through a frequency map phi:
    shift = phi_0 - omega_0 and matrix = Dphi."""
    if f.n_w == 0 or f.D_w == 0:
        return f.copy()
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

    each the pullback of an outer component by inner (``apply_affine``); if
    a parameter map is supplied the outer's jets are first pulled back
    through it."""
    K_out = K_out if K_out is not None else max(outer.E[0].K, inner.E[0].K)
    if phi_shift is not None:
        sub = lambda f: jet_param_substitute(f, phi_shift, phi_matrix)
    else:
        sub = lambda f: f
    pull = lambda f: apply_affine(sub(f), inner, K_out=K_out)
    return AffineTransform(E=[e.rebanded(K_out) + pull(oe) for e, oe in zip(inner.E, outer.E)],
                           A=[pull(a) for a in outer.A])


def affine_flow_ode(C: FTSeries, D: list, t: float = 1.0, n_steps: int = 64,
                    K_out: Optional[int] = None) -> AffineTransform:
    """Collocation flow of X = C(theta) + D(theta).I for t in [0, 1].

    Per grid point, RK4 on the decoupled angle ODE and the linear
    variational equations
        E' = D(theta+E),  F' = -gradD(theta+E)(1+F),  G' = -gradC - gradD G.
    """
    n = C.n
    K_out = K_out if K_out is not None else max([C.K] + [d.K for d in D])
    N, grid = _collocation_grid(n, K_out)
    P = len(grid)

    gradC = [C.dtheta(i) for i in range(n)]
    gradD = [[D[j].dtheta(i) for j in range(n)] for i in range(n)]

    def rhs(E, F, G):
        pts = grid + E
        Dv = np.stack([d.eval(pts) for d in D], axis=-1)
        gC = np.stack([g.eval(pts) for g in gradC], axis=-1)
        gD = np.stack([np.stack([gradD[i][j].eval(pts) for j in range(n)],
                                axis=-1) for i in range(n)], axis=-2)
        dE = Dv
        eye = np.eye(n)
        dF = -np.einsum("pij,pjk->pik", gD, F + eye)
        dG = -gC - np.einsum("pij,pj->pi", gD, G)
        return dE, dF, dG

    E = np.zeros((P, n))
    F = np.zeros((P, n, n))
    G = np.zeros((P, n))
    h = t / n_steps
    for _ in range(n_steps):
        k1 = rhs(E, F, G)
        k2 = rhs(E + 0.5 * h * k1[0], F + 0.5 * h * k1[1], G + 0.5 * h * k1[2])
        k3 = rhs(E + 0.5 * h * k2[0], F + 0.5 * h * k2[1], G + 0.5 * h * k2[2])
        k4 = rhs(E + h * k3[0], F + h * k3[1], G + h * k3[2])
        E = E + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        F = F + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        G = G + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])

    def to_series(vals):
        return FTSeries.from_samples(FTSeries.zeros(n, K_out),
                                     {((0,) * n, ()): vals}, N)

    return AffineTransform(
        E=[to_series(E[:, i]) for i in range(n)],
        A=[_action_component(i, to_series(G[:, i]), [to_series(F[:, i, j]) for j in range(n)])
           for i in range(n)])


def affine_flow_lie(C: FTSeries, D: list, t: float = 1.0,
                    K_out: Optional[int] = None) -> AffineTransform:
    """Affine flow by Lie series on the coordinate functions.

    With X = C + sum_j D_j I_j and ad f = {f, X}: ad theta_i = D_i, so
    E_i = sum_{r>=1} t^r/r! ad^(r-1) D_i, and A_i = I_i o Phi is the Lie
    series of I_i.  Both run on `lie_flow`'s loop; each finished series is
    pruned at the noise floor once.  Carries parameter jets.
    """
    n = C.n
    K_out = K_out if K_out is not None else max([C.K] + [d.K for d in D])
    units = [tuple(int(a == j) for a in range(n)) for j in range(n)]
    X = C
    for j, d in enumerate(D):
        X = X + d.map_monomials(lambda m, w, ej=units[j]: [((ej, w), 1.0)], D_I=1)
    E = [_lie_series(X, d, t, 1, K_out=K_out, D_I_out=0).prune_entries(_NOISE_FLOOR)
         for d in D]
    I = [FTSeries.zeros(n, K_out, D_I=1, D_w=C.D_w, n_w=C.n_w).set_mode((0,) * n, 1.0, m=u)
         for u in units]
    A = [lie_flow(X, Ii, t, K_out=K_out, D_I_out=1).prune_entries(_NOISE_FLOOR) for Ii in I]
    return AffineTransform(E=E, A=A)


# ---------------------------------------------------------------------------
# general Lie flow
# ---------------------------------------------------------------------------

def lie_flow(Y: FTSeries, H: FTSeries, t: float = 1.0, max_order: int = 40,
             tol: float = 1e-16, K_out: Optional[int] = None,
             D_I_out: Optional[int] = None) -> FTSeries:
    """H o Phi_Y^t = sum_r (t^r/r!) ad_Y^r H at truncation.

    The tail is monitored; if term norms grow for three consecutive orders
    before reaching tol the series is declared divergent.
    """
    return _lie_series(Y, H, t, 0, max_order, tol, K_out, D_I_out)


def _lie_series(Y: FTSeries, H: FTSeries, t: float, r0: int, max_order: int = 40,
                tol: float = 1e-16, K_out: Optional[int] = None,
                D_I_out: Optional[int] = None) -> FTSeries:
    """sum_{r>=0} t^(r+r0)/(r+r0)! ad_Y^r H, ad f = {f, Y}, r0 in {0, 1},
    with `lie_flow`'s tail monitor relative to |H|."""
    K_out = K_out if K_out is not None else max(Y.K, H.K)
    D_I_out = D_I_out if D_I_out is not None else max(H.D_I, Y.D_I)
    fac = t if r0 else 1.0
    out = fac * H if r0 else H
    term = H
    grow = 0
    last = math.inf
    scale = max(H.coeff_norm1(), 1e-300)
    for r in range(1, max_order + 1):
        term = poisson_bracket(term, Y, K_out=K_out, D_I_out=D_I_out)
        fac = fac * t / (r + r0)
        out = out + fac * term
        size = abs(fac) * term.coeff_norm1()
        if size < tol * scale:
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
    energies: np.ndarray
    n_steps: int
    dt: float

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))


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
                       energy: Optional[Callable] = None, newton_tol: float = 1e-13,
                       max_inner: int = 60, sample_every: int = 1) -> Trajectory:
    """Implicit midpoint by fixed-point iteration (symplectic, 2nd order)."""
    n_steps = int(round(t_end / dt))
    theta = np.asarray(theta0, dtype=float).copy()
    I = np.asarray(I0, dtype=float).copy()
    ts, ths, Is, Es = [0.0], [theta.copy()], [I.copy()], []
    Es.append(energy(theta, I) if energy else 0.0)
    for step in range(1, n_steps + 1):
        th_new, I_new = theta, I
        for it in range(max_inner):
            th_mid = 0.5 * (theta + th_new)
            I_mid = 0.5 * (I + I_new)
            th_next = theta + dt * grad_I(th_mid, I_mid)
            I_next = I - dt * grad_theta(th_mid, I_mid)
            delta = np.max(np.abs(th_next - th_new)) + np.max(np.abs(I_next - I_new))
            th_new, I_new = th_next, I_next
            if delta < newton_tol:
                break
        else:
            raise StiffnessError(f"midpoint fixed point stalled at step {step}")
        theta, I = th_new, I_new
        if step % sample_every == 0 or step == n_steps:
            ts.append(step * dt)
            ths.append(theta.copy())
            Is.append(I.copy())
            Es.append(energy(theta, I) if energy else 0.0)
    return Trajectory(times=np.array(ts), thetas=np.array(ths),
                      actions=np.array(Is), energies=np.array(Es),
                      n_steps=n_steps, dt=dt)


# ---------------------------------------------------------------------------
# pendulum rotation orbits
# ---------------------------------------------------------------------------

VARTHETA = -0.5 + (2.0 / math.pi) * math.atan(math.exp(math.pi))


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
        from scipy.integrate import quad
        u_lo = 0.5 - th
        direct_hi = min(th, 0.25)
        val, _ = quad(lambda x: 1.0 / self.speed(x), 0.0, direct_hi,
                      epsabs=1e-15, epsrel=1e-13, limit=100)
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
        hi = 0.5 if self.a2 > 0.0 else 0.5 - 1e-12
        if self.a2 == 0.0 and tm >= self._tau_sep_end:
            return 0.5
        from scipy.optimize import brentq
        return brentq(lambda x: self.tau(x) - tm, 0.0, hi, xtol=1e-15)

    @cached_property
    def _tau_sep_end(self) -> float:
        """tau(1/2 - 1e-12): on the separatrix, later times map to theta = 1/2."""
        return self.tau(0.5 - 1e-12)


def _sinh_piece(a2: float, u_lo: float, u_hi: float) -> float:
    """int_{u_lo}^{u_hi} du / sqrt(4 sin^2(pi u) + a2).

    The substitution u = (a/2pi) sinh(t) flattens the 1/(2 pi u) tail into
    an O(1) smooth integrand on a logarithmic-length interval, which keeps
    the quadrature stable down to a ~ 1e-150.  At a2 = 0 (separatrix data,
    u_lo > 0 required) the log substitution u = e^v takes over.
    """
    if u_hi <= u_lo:
        return 0.0
    from scipy.integrate import quad
    if a2 == 0.0:
        if u_lo <= 0.0:
            raise ParameterError("separatrix integrand diverges at u = 0")

        def h0(v):
            u = np.exp(v)
            return u / (2.0 * np.sin(math.pi * u))

        val, _ = quad(h0, math.log(u_lo), math.log(u_hi),
                      epsabs=1e-15, epsrel=1e-13, limit=200)
        return val
    a = math.sqrt(a2)
    t_lo = math.asinh(TWO_PI * u_lo / a)
    t_hi = math.asinh(TWO_PI * u_hi / a)

    def h(t):
        u = (a / TWO_PI) * np.sinh(t)
        return (a / TWO_PI) * np.cosh(t) / np.sqrt(4.0 * np.sin(math.pi * u) ** 2 + a2)

    val, _ = quad(h, t_lo, t_hi, epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


def pendulum_period_of_eps(eps: float) -> float:
    """Winding time of the rotation orbit with I_B = 2 + eps."""
    if eps <= 0:
        raise ParameterError("rotation orbits require eps > 0")
    from scipy.integrate import quad
    a2 = 4.0 * eps + eps ** 2
    direct, _ = quad(lambda x: 1.0 / np.sqrt(4.0 * np.cos(math.pi * x) ** 2 + a2),
                     0.0, 0.25, epsabs=1e-15, epsrel=1e-13, limit=100)
    return 2.0 * (direct + _sinh_piece(a2, 0.0, 0.25))


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
    from scipy.optimize import brentq
    f = lambda x: pendulum_period_of_eps(math.exp(x)) - B
    x = brentq(f, -700.0, math.log(5.0), xtol=1e-13, rtol=8.9e-16)
    return PendulumOrbit(B=float(B), eps=math.exp(x), log_eps=x)


def pendulum_exclusion_margin(orbit: PendulumOrbit, n_samples: int = 200) -> float:
    """min over t in [1/2, B-1/2] of |theta_B(t)| - vartheta.

    A positive margin certifies the exclusion window used by the
    coupled-map synchronization; equivalently tau(vartheta) < 1/2."""
    ts = np.linspace(0.5, orbit.B - 0.5, n_samples)
    margin = math.inf
    for t in ts:
        th = orbit.theta_of_t(float(t))
        margin = min(margin, abs(th) - VARTHETA)
    return margin


def tau_norm_certificate(orbit: PendulumOrbit, sp: ScaleProfile, s: float,
                         radius: float = 0.02, l_cap: int = 120,
                         n_circle: int = 256) -> float:
    """Certified upper bound for |tau_B|_{M,s} on [-vartheta, vartheta].

    tau_B' = 1/speed is analytic in a strip whose width is uniform in B:
    the complex turning points sit over theta = 1/2 +- i y_B, a distance
    > 1/2 - vartheta from the window.  Cauchy estimates off circles of the
    given radius bound every derivative, giving
        c * max( sup|tau|, sup_{l>=1} (l+1)^2 s^l (l-1)! Mg r^{1-l} / M_l ).
    """
    if radius >= 0.5 - VARTHETA:
        raise ParameterError("radius exceeds the uniform analyticity margin")
    xs = np.linspace(-VARTHETA, VARTHETA, 41)
    ang = np.exp(2j * math.pi * np.arange(n_circle) / n_circle)
    Mg = 0.0
    for x0 in xs:
        z = x0 + radius * ang
        g = 1.0 / np.sqrt(4.0 * np.cos(math.pi * z) ** 2 + orbit.a2)
        Mg = max(Mg, float(np.max(np.abs(g))))
    sup_tau = abs(orbit.tau(VARTHETA))
    from scipy.special import gammaln
    l = np.arange(1, l_cap + 1, dtype=float)
    log_terms = (2.0 * np.log(l + 1.0) + l * math.log(s) + gammaln(l)
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
