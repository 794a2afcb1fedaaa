"""Independent checks of every workload's artifacts, in plain numpy.

No function here calls udham.  Each `check_*` takes the artifact directory
of one operation and returns a list of failure messages; an empty list
means the artifacts are right.  The references are recomputed from first
principles: the KAM invariance equations and the first-order Lindstedt
torus, first-order averaging, a brute-force small-denominator search,
closed forms of the weight sequence and the drift, and the bounds the
methods promise.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import workloads as W
from artifacts import csv_column, read_csv, read_fts, read_manifest

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
OMEGA0 = np.array([1.0, GOLDEN])
C_NORM = 4.0 * math.pi ** 2 / 3.0      # normalizing constant of the paper's norm
BR_BUDGET = math.log(2.0) / 10.0       # ln 2 / (4n + 2) at n = 2
KAM_GRID_N = 48                        # the CLI's default defect grid


def _close(a, b, rtol, atol=0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


# ---------------------------------------------------------------------------
# kam_torus
# ---------------------------------------------------------------------------

def kam_f_modes() -> dict:
    """{k: f_k} of f = cos 2pi th1 + 0.8 cos 2pi(th1+th2) + 0.5 sin 2pi(2th1+th2)."""
    modes = {}
    for k, c in (((1, 0), 0.5), ((-1, 0), 0.5), ((1, 1), 0.4), ((-1, -1), 0.4),
                 ((2, 1), 0.5 / 2j), ((-2, -1), -0.5 / 2j)):
        modes[k] = modes.get(k, 0.0) + c
    return modes


def kam_grad_f(pts: np.ndarray) -> np.ndarray:
    """grad f at points (P, 2), from the closed form of f."""
    two_pi = 2.0 * math.pi
    t1, t2 = pts[:, 0], pts[:, 1]
    a = -two_pi * np.sin(two_pi * t1)
    b = -0.8 * two_pi * np.sin(two_pi * (t1 + t2))
    c = 0.5 * two_pi * np.cos(two_pi * (2 * t1 + t2))
    return np.stack([a + b + 2 * c, b + c], axis=-1)


def _grid_axis(n):
    return np.arange(n) / n


def _eval_on_grid(arr: np.ndarray, K: int, n_grid: int, deriv=(0, 0)) -> np.ndarray:
    """Real part of sum_k c_k (2 pi i k)^deriv e^{2 pi i k.theta} on the
    n_grid^2 tensor grid, flattened in (theta1, theta2) row-major order."""
    k = np.arange(-K, K + 1)
    V = np.exp(2j * math.pi * np.outer(_grid_axis(n_grid), k))   # (P1, 2K+1)
    c = arr * ((2j * math.pi * k[:, None]) ** deriv[0]) * ((2j * math.pi * k[None, :]) ** deriv[1])
    return (V @ c @ V.T).real.reshape(-1)


def lindstedt_d1(n_grid: int = KAM_GRID_N) -> float:
    """max over the grid of |E1|_1 + |A1|_1 for the first-order torus
    E1_k = i k f_k / (2 pi (k.w0)^2), A1_k = -k f_k / (k.w0)."""
    th = _grid_axis(n_grid)
    grid = np.stack(np.meshgrid(th, th, indexing="ij"), -1).reshape(-1, 2)
    E1 = np.zeros(grid.shape, dtype=complex)
    A1 = np.zeros(grid.shape, dtype=complex)
    for k, fk in kam_f_modes().items():
        k = np.asarray(k, dtype=float)
        kw = float(k @ OMEGA0)
        phase = np.exp(2j * math.pi * (grid @ k))[:, None]
        E1 += phase * (1j * k * fk / (2.0 * math.pi * kw ** 2))
        A1 += phase * (-k * fk / kw)
    return float(np.max(np.sum(np.abs(E1.real), 1) + np.sum(np.abs(A1.real), 1)))


def kam_numbers(d: Path) -> dict:
    """Invariance defect and embedding distance recomputed from the `.fts`
    embedding theta -> (theta + E(theta), omega* + G(theta))."""
    man = read_manifest(d / "manifest.txt")
    omega_star = np.array(man["omega_star"], dtype=float)
    ser = {name: read_fts(d / f"embedding_{name}.fts") for name in ("E1", "E2", "G1", "G2")}
    for name, s in ser.items():
        if s.n != 2 or set(s.blocks) - {((0, 0), (0,) * s.n_w)}:
            raise ValueError(f"embedding_{name}: expected one angle-only block")
    K = ser["E1"].K
    base = ((0, 0), (0,) * ser["E1"].n_w)
    coef = {name: s.blocks.get(base, np.zeros((2 * K + 1,) * 2, complex))
            for name, s in ser.items()}
    n = KAM_GRID_N
    th = _grid_axis(n)
    grid = np.stack(np.meshgrid(th, th, indexing="ij"), -1).reshape(-1, 2)
    E = np.stack([_eval_on_grid(coef[x], K, n) for x in ("E1", "E2")], -1)
    G = np.stack([_eval_on_grid(coef[x], K, n) for x in ("G1", "G2")], -1)
    dE = np.stack([np.stack([_eval_on_grid(coef[x], K, n, (j == 0, j == 1))
                             for j in range(2)], -1) for x in ("E1", "E2")], -2)
    dG = np.stack([np.stack([_eval_on_grid(coef[x], K, n, (j == 0, j == 1))
                             for j in range(2)], -1) for x in ("G1", "G2")], -2)
    d_theta = OMEGA0 + dE @ OMEGA0 - (omega_star + G)
    d_I = dG @ OMEGA0 + W.KAM_EPS * kam_grad_f(grid + E)
    defect = float(max(np.max(np.abs(d_theta)), np.max(np.abs(d_I))))
    dist = float(np.max(np.sum(np.abs(E), 1) + np.sum(np.abs(G + omega_star - OMEGA0), 1)))
    return {"defect": defect, "dist": dist, "manifest": man}


def check_kam(d: Path) -> list:
    d = Path(d)
    num = kam_numbers(d)
    man = num["manifest"]
    d1 = lindstedt_d1()
    eps = W.KAM_EPS
    fails = []
    if man.get("converged") is not True:
        fails.append(f"kam: converged = {man.get('converged')}")
    if not num["defect"] <= W.KAM_TOL:
        fails.append(f"kam: recomputed defect {num['defect']:.3e} > tol {W.KAM_TOL}")
    reported = man.get("defects", [math.nan])[-1]
    if not _close(num["defect"], reported, 1e-2, 1e-15):
        fails.append(f"kam: recomputed defect {num['defect']:.7e} != reported {reported:.7e}")
    err = abs(num["dist"] / (eps * d1) - 1.0)
    if not err <= eps:
        fails.append(f"kam: |dist/(eps D1) - 1| = {err:.3e} > eps (dist {num['dist']:.6e}, D1 {d1:.10f})")
    csv_defects = csv_column(d / "iterations.csv", "defect")
    if not np.array_equal(csv_defects, np.array(man.get("defects", []), dtype=float)):
        fails.append("kam: iterations.csv defects differ from the manifest")
    return fails


# ---------------------------------------------------------------------------
# nf_averaging (and the toy nf of lab_cli)
# ---------------------------------------------------------------------------

def _neishtadt(man: dict, label: str) -> list:
    steps, before, after = man.get("steps"), man.get("cert_before"), man.get("cert_after")
    if not isinstance(steps, int) or steps < 1:
        return [f"{label}: steps = {steps!r}"]
    bound = 2.0 * before * math.exp(-steps)
    if not after <= bound:
        return [f"{label}: cert_after {after:.3e} > 2 cert_before e^-steps = {bound:.3e}"]
    return []


def nf_oracle_error(d: Path, seed: int) -> dict:
    """l1 distance between the resonant part and L_v + eta I_2 + eps [f]_v,
    and the largest coefficient of a mode with k.Tv != 0 in it."""
    res = read_fts(Path(d) / "resonant.fts")
    K = res.K
    r = np.arange(-K, K + 1)
    kTv = r[:, None] * W.NF_TV[0] + r[None, :] * W.NF_TV[1]
    ref = {}
    f = W.nf_perturbation(seed)
    f_norm = sum(abs(c) for c in f.values())
    for (k, m), c in f.items():
        if k[0] * W.NF_TV[0] + k[1] * W.NF_TV[1] == 0:
            ref[(k, m)] = ref.get((k, m), 0.0) + W.NF_EPS * c
    ref[((0, 0), (1, 0))] = ref.get(((0, 0), (1, 0)), 0.0) + 1.0
    ref[((0, 0), (0, 1))] = ref.get(((0, 0), (0, 1)), 0.0) + W.NF_ETA
    diff = {key: arr.copy() for key, arr in res.blocks.items()}
    for (k, m), c in ref.items():
        key = (m, (0,) * res.n_w)
        if key not in diff:
            diff[key] = np.zeros((2 * K + 1,) * 2, dtype=complex)
        diff[key][k[0] + K, k[1] + K] -= c
    err = float(sum(np.sum(np.abs(a)) for a in diff.values()))
    off = max((float(np.max(np.abs(a[kTv != 0]))) for a in res.blocks.values()), default=0.0)
    scale = W.NF_EPS * f_norm
    return {"err": err, "eps_f1": scale, "ratio": err / scale,
            "ratio_sq": err / scale ** 2, "off_resonant": off}


def check_nf_averaging(d: Path, seed: int) -> list:
    d = Path(d)
    man = read_manifest(d / "manifest.txt")
    fails = _neishtadt(man, "nf_averaging")
    o = nf_oracle_error(d, seed)
    if o["off_resonant"] != 0.0:
        fails.append(f"nf_averaging: resonant part holds a k.Tv != 0 mode of size {o['off_resonant']:.3e}")
    if not o["err"] <= o["eps_f1"] ** 2:
        fails.append(f"nf_averaging: |resonant - (L_v + S + [f]_v)|_1 = {o['err']:.3e} > (eps |f|_1)^2 = {o['eps_f1'] ** 2:.3e}")
    _, rows = read_csv(d / "stages.csv")
    if len(rows) != man.get("steps"):
        fails.append(f"nf_averaging: stages.csv has {len(rows)} rows for {man.get('steps')} steps")
    return fails


# ---------------------------------------------------------------------------
# lab_cli
# ---------------------------------------------------------------------------

def check_weights(d: Path) -> list:
    """Gevrey-2: mu_l = (l+1)^2 and M_l = (l!)^2."""
    d = Path(d)
    l = csv_column(d / "weights.csv", "l")
    M_log = csv_column(d / "weights.csv", "M_l_log")
    mu_log = csv_column(d / "weights.csv", "mu_l_log")
    ref_M = np.array([2.0 * math.lgamma(x + 1.0) for x in l])
    ref_mu = 2.0 * np.log1p(l)
    fails = []
    if len(l) == 0 or not np.allclose(M_log, ref_M, rtol=1e-12, atol=1e-12):
        fails.append("weights: M_l_log differs from 2 log l!")
    if not np.allclose(mu_log, ref_mu, rtol=1e-12, atol=1e-12):
        fails.append("weights: mu_l_log differs from 2 log(l+1)")
    if read_manifest(d / "manifest.txt").get("H1_pass") is not True:
        fails.append("weights: H1_pass is not True")
    return fails


def psi_brute(omega, Q_max: int):
    """psi(Q) = max over 0 < |k|_1 <= Q of 1/|k.omega| and one maximizer,
    by enumerating every integer k with |k|_1 <= Q_max."""
    r = np.arange(-Q_max, Q_max + 1)
    k1, k2 = np.meshgrid(r, r, indexing="ij")
    k1, k2 = k1.ravel(), k2.ravel()
    norm = np.abs(k1) + np.abs(k2)
    keep = (norm > 0) & (norm <= Q_max)
    k1, k2, norm = k1[keep], k2[keep], norm[keep]
    val = 1.0 / np.abs(k1 * omega[0] + k2 * omega[1])
    psi, ks = [], []
    best, best_k = -1.0, None
    for q in range(1, Q_max + 1):
        sel = norm == q
        j = int(np.argmax(np.where(sel, val, -1.0)))
        if val[j] > best:
            best, best_k = float(val[j]), (int(k1[j]), int(k2[j]))
        psi.append(best)
        ks.append(best_k)
    return np.array(psi), ks


def check_dioph(d: Path) -> list:
    d = Path(d)
    man = read_manifest(d / "manifest.txt")
    omega = np.array(man["omega"], dtype=float)
    _, rows = read_csv(d / "psi.csv")
    Q = [int(r[0]) for r in rows]
    if Q != list(range(1, 201)):
        return ["dioph: psi.csv does not cover Q = 1..200"]
    if not np.allclose(omega, OMEGA0, rtol=1e-15):
        return [f"dioph: omega {omega} is not (1, golden)"]
    ref, ks = psi_brute(OMEGA0, 200)
    fails = []
    for (q, psi, a, b), r, k in zip(rows, ref, ks):
        if not _close(psi, r, 1e-12):
            fails.append(f"dioph: psi({q}) = {psi!r}, brute force {float(r)!r}")
        elif (a, b) not in (k, (-k[0], -k[1])):
            fails.append(f"dioph: psi({q}) attained at {(a, b)}, brute force {k}")
    return fails[:5]


def _br_columns(d: Path):
    return csv_column(d / "brtest.csv", "sigma_i"), csv_column(d / "brtest.csv", "partial_sum")


def check_brtest_gevrey(d: Path) -> list:
    d = Path(d)
    man = read_manifest(d / "manifest.txt")
    sig, part = _br_columns(d)
    fails = []
    if man.get("verdict") != "ConvergedWithinBudget":
        fails.append(f"brtest gevrey: verdict {man.get('verdict')}")
    if not np.allclose(part, np.cumsum(sig), rtol=1e-12):
        fails.append("brtest gevrey: partial sums are not the running sums of sigma_i")
    if not (np.all(sig > 0) and float(np.sum(sig)) <= BR_BUDGET):
        fails.append(f"brtest gevrey: sum sigma_i = {np.sum(sig):.6f} > ln2/10 = {BR_BUDGET:.6f}")
    if not man.get("total_with_tail", math.inf) <= BR_BUDGET:
        fails.append("brtest gevrey: total_with_tail exceeds ln2/10")
    return fails


def log_fit_r2(part: np.ndarray):
    """(R^2, b) of the least-squares fit partial_sum_i ~ a + b ln(i + 1).

    sigma_i ~ c / ln Q_i and ln Q_i grows linearly in i, so a divergent sum
    grows like the harmonic series, i.e. like ln i."""
    x = np.log(np.arange(1, len(part) + 1, dtype=float))
    A = np.stack([np.ones_like(x), x], -1)
    coef, *_ = np.linalg.lstsq(A, part, rcond=None)
    resid = part - A @ coef
    return float(1.0 - np.sum(resid ** 2) / np.sum((part - part.mean()) ** 2)), float(coef[1])


def check_brtest_expsqrt(d: Path) -> list:
    d = Path(d)
    man = read_manifest(d / "manifest.txt")
    sig, part = _br_columns(d)
    fails = []
    if man.get("verdict") != "DivergenceDiagnosed":
        fails.append(f"brtest exp-sqrt: verdict {man.get('verdict')}")
    if not np.allclose(part, np.cumsum(sig), rtol=1e-12):
        fails.append("brtest exp-sqrt: partial sums are not the running sums of sigma_i")
    r2, slope = log_fit_r2(part)
    if not (r2 >= 0.95 and slope > 0 and part[-1] > BR_BUDGET):
        fails.append(f"brtest exp-sqrt: log fit R^2 {r2:.4f}, slope {slope:.4f}, sum {part[-1]:.4f}")
    return fails


def check_nf_toy(d: Path) -> list:
    return _neishtadt(read_manifest(Path(d) / "manifest.txt"), "nf toy")


def check_diffuse(d: Path) -> list:
    d = Path(d)
    rate = read_manifest(d / "manifest.txt")["rate"]
    t = csv_column(d / "drift.csv", "t")
    drift = csv_column(d / "drift.csv", "drift_l1")
    I = np.stack([csv_column(d / "drift.csv", f"I{i}") for i in (1, 2, 3)], -1)
    fails = []
    if not (len(t) > 1 and np.allclose(drift, rate * t, rtol=1e-9, atol=0.0)):
        fails.append("diffuse: drift_l1 != rate t")
    if not np.allclose(np.sum(np.abs(I), 1), drift, rtol=1e-9, atol=0.0):
        fails.append("diffuse: |I(t) - I(0)|_1 != drift_l1")
    return fails


def check_ms_exact(d: Path) -> list:
    d = Path(d)
    man = read_manifest(d / "manifest.txt")
    step = csv_column(d / "drift.csv", "step")
    I1 = csv_column(d / "drift.csv", "I1")
    q = 100
    fails = []
    if step[-1] != q * q or not abs(I1[-1] - 1.0) <= 1e-9:
        fails.append(f"ms exact: I1 at step {step[-1]:.0f} is {float(I1[-1])!r}, not 1 at q^2 = {q*q}")
    if not abs(man.get("final_I1", math.nan) - 1.0) <= 1e-9:
        fails.append(f"ms exact: final_I1 = {man.get('final_I1')}")
    if np.any(np.diff(I1) < -1e-12):
        fails.append("ms exact: I1 decreases")
    return fails


def check_ms_pendulum(d: Path) -> list:
    man = read_manifest(Path(d) / "manifest.txt")
    fails = []
    if man.get("sync_passed") is not True:
        fails.append("ms pendulum: synchronization check did not pass")
    if not man.get("cert_g", math.inf) <= man.get("cert_budget", -math.inf):
        fails.append("ms pendulum: cert_g exceeds cert_budget")
    return fails


def check_bessi(d: Path) -> list:
    d = Path(d)
    man = read_manifest(d / "manifest.txt")
    bound = 4.0 * C_NORM * 0.1
    cert = csv_column(d / "bessi.csv", "cert")
    growth = csv_column(d / "bessi.csv", "growth")
    fails = []
    if not _close(man.get("cert_bound_4c_eps", math.nan), bound, 1e-12):
        fails.append(f"bessi: cert_bound_4c_eps {man.get('cert_bound_4c_eps')} != 4 c eps = {bound}")
    if len(cert) == 0 or not np.all(cert <= bound):
        fails.append("bessi: a certificate exceeds 4 c eps")
    if not np.all(np.diff(growth) > 0):
        fails.append("bessi: growth is not strictly increasing")
    return fails


def check_report(d: Path, manifests: list) -> list:
    _, rows = read_csv(Path(d) / "report.csv")
    fails = []
    if sorted(r[0] for r in rows) != sorted(manifests):
        fails.append(f"report: {len(rows)} rows for {len(manifests)} manifests")
    if any(r[1] != "OK" for r in rows):
        fails.append("report: a row is not OK")
    return fails


def checks(seed: int) -> dict:
    """{operation name: check of the artifact dir PASS_DIR/name}."""
    return {
        "kam": check_kam, "nf": lambda d: check_nf_averaging(d, seed),
        "weights": check_weights, "dioph": check_dioph,
        "brtest_gevrey": check_brtest_gevrey, "brtest_expsqrt": check_brtest_expsqrt,
        "nf_toy": check_nf_toy, "diffuse": check_diffuse, "ms_exact": check_ms_exact,
        "ms_pendulum": check_ms_pendulum, "bessi": check_bessi,
        W.LAB_REPORT: lambda d: check_report(d, W.lab_manifests()),
    }


# A fault of the program that its oracle finds on every run, on inputs that
# do not depend on the seed.  `dioph.golden_profile` sets its horizon to
# breaks[-1] + q, which is the |k|_1 of the next convergent, so psi(144) is
# read before the break at 144 = |(-89, 55)|_1 is added and returns psi(143).
# An operation whose only failures are these counts as failed, not incorrect.
KNOWN_FAULTS = {"dioph": ("dioph: psi(144) = ",)}


def is_known_fault(name: str, messages: list) -> bool:
    prefixes = KNOWN_FAULTS.get(name, ())
    return bool(messages) and all(m.startswith(prefixes) for m in messages)


def _guarded(name, fn, d: Path) -> list:
    try:
        return fn(d)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{name}: unreadable artifacts: {type(exc).__name__}: {exc}"]


def check_pass(workload: str, root: Path, seed: int) -> dict:
    """{operation name: failure messages} for the pass under root/PASS_DIR."""
    base = Path(root) / W.PASS_DIR
    table = checks(seed)
    return {name: _guarded(name, table[name], base / name)
            for name, _, _ in W.operations(workload)}
