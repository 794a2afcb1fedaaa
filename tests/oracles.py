"""Independent oracles that the tests cross-check the package against.

Each computes a quantity of the package by a direct, slower route:
brute-force lattice enumeration for Psi, a direct scan for Omega,
Gauss-Legendre quadrature for the homological solve and an RK4
collocation flow for the affine Lie-series flow.  Below them sit the
accessors and checks that only the tests read: one angle block of a
series, its reality defect, an affine transform applied to points and
that map's symplecticity defect.  No package code calls any of them.
"""

import math
from typing import Optional

import numpy as np

from udham.dioph import PSI_BRUTE_BUDGET, BudgetError, ResonanceError
from udham.flows import AffineTransform, _action_component, _collocation_size
from udham.series import TWO_PI, FTSeries, _flip, average_periodic
from udham.weights import ParameterError, ScaleProfile


def psi_brute(omega, Q: float):
    """Exact max of |k.omega|^-1 over 0 < |k|_1 <= Q by lattice enumeration.

    Returns (value, k) with k the lexicographically smallest maximizer.
    """
    omega = np.asarray(omega, dtype=float)
    n = len(omega)
    Qi = int(math.floor(Q))
    if Qi < 1:
        raise ParameterError("psi requires Q >= 1")
    if n > 4 or Qi > 1000:
        raise BudgetError("brute-force psi limited to n <= 4, Q <= 1000")
    if (2 * Qi + 1) ** n > PSI_BRUTE_BUDGET:
        raise BudgetError(f"lattice ball of size ~{(2*Qi+1)**n:.2e} exceeds budget")
    rngs = [np.arange(-Qi, Qi + 1)] * n
    K = np.stack(np.meshgrid(*rngs, indexing="ij"), axis=-1).reshape(-1, n)
    norms = np.sum(np.abs(K), axis=1)
    K = K[(norms > 0) & (norms <= Qi)]
    dots = np.abs(K @ omega)
    scale = np.sum(np.abs(K), axis=1) * np.max(np.abs(omega))
    res = dots <= 1e-14 * scale
    if np.any(res):
        k_res = K[np.argmax(res)]
        raise ResonanceError(f"exact resonance at k={tuple(k_res)}", k_res)
    best = np.min(dots)
    winners = K[dots <= best * (1.0 + 1e-12)]
    k = min(map(tuple, winners))
    return 1.0 / best, tuple(int(x) for x in k)


def omega_brute(sp: ScaleProfile, y: float) -> float:
    """Direct scan oracle for Omega (tests only)."""
    if y <= 1.0:
        return 0.0
    l = np.arange(sp.ws.L_max + 1, dtype=float)
    return float(np.max(l * math.log(y) - sp.ws.log_M))


def homological_integral_oracle(f: FTSeries, pv) -> FTSeries:
    """Direct quadrature of T int_0^1 (f - [f]_v)(theta + t T v) t dt.

    Independent check of the divisor formula: the time shift acts modewise
    as e^{2 pi i t k.Tv}, integrated by 160-point Gauss-Legendre (spectrally
    exact for the oscillation orders reachable at the stored truncation)."""
    g = f - average_periodic(f, pv)
    r = np.arange(-g.K, g.K + 1)
    kgrid = np.stack(np.meshgrid(*([r] * g.n), indexing="ij"), axis=-1)
    kTv = kgrid @ np.asarray(pv.Tv, dtype=float)
    ts, wts = np.polynomial.legendre.leggauss(160)
    ts = 0.5 * (ts + 1.0)
    wts = 0.5 * wts
    phase = np.tensordot(np.exp(TWO_PI * 1j * np.multiply.outer(ts, kTv)),
                         wts * ts, axes=(0, 0))
    return g._new(g.keys, g.coef * (pv.T * phase)).prune()


def affine_flow_ode(C: FTSeries, D: list, t: float = 1.0, n_steps: int = 64,
                    K_out: Optional[int] = None) -> AffineTransform:
    """Collocation flow of X = C(theta) + D(theta).I for t in [0, 1].

    Per grid point, RK4 on the decoupled angle ODE and the linear
    variational equations
        E' = D(theta+E),  F' = -gradD(theta+E)(1+F),  G' = -gradC - gradD G.
    """
    n = C.n
    K_out = K_out if K_out is not None else max([C.K] + [d.K for d in D])
    N = _collocation_size(K_out)      # the grid in C order, (N^n, n)
    grid = np.stack(np.meshgrid(*[np.arange(N) / N] * n, indexing="ij"),
                    axis=-1).reshape(-1, n)
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


def block(f: FTSeries, m=None, w=None) -> np.ndarray:
    """Read-only angle block of I^m w^w (zeros when absent)."""
    key = f._key(m, w)
    if key in f.keys:
        return f.blocks[key]
    out = np.zeros(f._shape(), dtype=complex)
    out.flags.writeable = False
    return out


def check_reality(f: FTSeries) -> float:
    """Max |c_{-k} - conj(c_k)| over blocks."""
    return float(np.max(np.abs(f.coef - np.conj(_flip(f.coef, f.n))),
                        initial=0.0))


def apply_transform(tr: AffineTransform, theta, I, w=None):
    """(theta + E(theta), A(theta, I)) at points (P, n)."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    I = np.atleast_2d(np.asarray(I, dtype=float))
    Ev = np.stack([e.eval(theta, w=w) for e in tr.E], axis=-1)
    Av = np.stack([a.eval(theta, I=I, w=w) for a in tr.A], axis=-1)
    return theta + Ev, Av


def jacobian_defect(tr: AffineTransform, n_pts=64):
    """Max |det DPhi - 1| over random points (symplecticity probe)."""
    rng = np.random.default_rng(0)
    h = 1e-6
    n = tr.n
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
            tp, ip = apply_transform(tr, zp[:n], zp[n:])
            tm, im = apply_transform(tr, zm[:n], zm[n:])
            Jac[:, j] = (np.concatenate([tp[0], ip[0]])
                         - np.concatenate([tm[0], im[0]])) / (2 * h)
        worst = max(worst, abs(np.linalg.det(Jac) - 1.0))
    return worst
