"""Batch driver: every experiment as a subcommand.

Determinism contract: identical config produces byte-identical artifacts
(sorted iteration orders, repr-based float formatting, no wall-clock or
versions-of-the-day in any output).  Exit codes: 0 success, 2 config
error, 3 budget/horizon/non-convergence (partial artifacts still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dioph, flows, instability, normal_forms, weights
from .series import FTSeries
from .weights import HorizonError, ParameterError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


@dataclass
class ExperimentConfig:
    """Flat, fully serializable run description."""

    subcommand: str
    params: dict = field(default_factory=dict)
    outdir: str = "runs/out"
    seed: int = 0

    def as_manifest_dict(self):
        d = {"subcommand": self.subcommand, "outdir": self.outdir,
             "seed": self.seed}
        for k in sorted(self.params):
            d[f"param.{k}"] = self.params[k]
        return d


def load_config_file(path: str) -> dict:
    """key = value lines (JSON literals where they parse) or a JSON object."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line without '=': {line!r}")
        key, val = (x.strip() for x in line.split("=", 1))
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        w.writerow(header)
        for row in rows:
            w.writerow([_plain(x) for x in row])


def write_manifest(path: Path, entries: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {_fmt(v)}" for k, v in sorted(entries.items())]
    path.write_text("\n".join(lines) + "\n")


def _plain(v):
    """Python scalars for numpy ones, so artifacts hold plain numbers."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def _fmt(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(_plain(v))


def parse_family(params) -> weights.Family:
    name = params.get("family", "gevrey")
    alpha = float(params.get("alpha", 1.0))
    beta = float(params.get("beta", 0.0))
    mapping = {"analytic": weights.analytic(), "gevrey": weights.gevrey(alpha),
               "gevrey-log": weights.gevrey_log(alpha, beta),
               "gevrey_log": weights.gevrey_log(alpha, beta),
               "exp-log": weights.exp_log(), "exp_log": weights.exp_log(),
               "explog": weights.exp_log(), "gevreylog": weights.gevrey_log(alpha, beta),
               "exp-sqrt": weights.exp_sqrt(), "exp_sqrt": weights.exp_sqrt(),
               "expsqrt": weights.exp_sqrt()}
    if name not in mapping:
        raise ParameterError(f"unknown family {name!r}")
    return mapping[name]


def parse_omega(params, n=2):
    spec = str(params.get("omega", "golden"))
    try:
        vals = [float(x) for x in spec.split(",")]
    except ValueError:
        return dioph.named_profile(spec, n)
    om = np.array(vals + [0.0] * (n - len(vals)))
    if len(vals) == 2 and abs(om[0] - 1.0) < 1e-15 and om[1] > 0:
        return dioph.profile_from_cf(om)
    return dioph.profile_from_brute(om, int(params.get("q_max", 60)))


def _grid(spec: str):
    """Log-spaced grid from "lo:hi[:n]" (33 points by default)."""
    parts = str(spec).split(":")
    lo, hi = float(parts[0]), float(parts[1])
    n = int(parts[2]) if len(parts) > 2 else 33
    return np.geomspace(lo, hi, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_weights(cfg: ExperimentConfig) -> int:
    p = cfg.params
    fam = parse_family(p)
    L = int(p.get("l_max", weights.DEFAULT_L_MAX))
    ws = weights.build_sequence(fam, L)
    sp = weights.ScaleProfile(ws)
    out = Path(cfg.outdir)
    l_rows = [(l, float(ws.log_M[l]),
               float(ws.log_mu[l]) if l < L else math.nan,
               float(ws.log_N[l]),
               float(math.exp(ws.log_nu[l])) if l < L else math.nan)
              for l in range(min(L, int(p.get("table_rows", 256))) + 1)]
    write_csv(out / "weights.csv",
              ["l", "M_l_log", "mu_l_log", "N_l_log", "nu_l"], l_rows)
    rows = []
    for sig in _grid(p.get("sigma_grid", "1e-3:0.5")):
        r = sp.cauchy_c(float(sig))
        rows.append((float(sig), r.value, r.argmax, int(r.certified)))
    write_csv(out / "cauchy.csv", ["sigma", "C", "argmax", "certified"], rows)
    rows = []
    for y in _grid(p.get("y_grid", "1.5:1e6")):
        try:
            r = sp.omega(float(y))
            rows.append((float(y), r.value, r.argmax))
        except HorizonError:
            break
    write_csv(out / "omega.csv", ["y", "Omega", "argmax"], rows)
    rep = weights.check_conditions(ws)
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(),
        "family": fam.tag, "L_max": L, "sigma_bar": sp.sigma_bar,
        "sigma_bar_capped": sp.sigma_bar_capped,
        "H1_pass": rep.h1_pass, "H2_tail_max": rep.h2_tail_max,
        "H3_partial_sum": rep.h3_partial_sum, "MG_value": rep.mg_value,
        "known_verdicts": rep.known_verdicts,
    })
    return EXIT_OK


def cmd_dioph(cfg: ExperimentConfig) -> int:
    p = cfg.params
    fp = parse_omega(p)
    norm = str(p.get("norm", "l1"))
    if norm == "linf":
        fp = dioph.profile_linf(fp)
    elif norm != "l1":
        raise ParameterError(f"unknown lattice norm {norm!r}")
    Q_max = int(p.get("q_max", 100))
    rows = []
    try:
        for Q in range(1, Q_max + 1):
            v, k = fp.psi(Q)
            rows.append((Q, v) + tuple(k))
    except HorizonError:
        pass
    out = Path(cfg.outdir)
    n = len(fp.omega)
    write_csv(out / "psi.csv", ["Q", "psi"] + [f"k{i+1}" for i in range(n)], rows)
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(), "omega": list(fp.omega), "label": fp.label,
        "norm": norm, "horizon": fp.horizon,
    })
    return EXIT_OK


def cmd_brtest(cfg: ExperimentConfig) -> int:
    p = cfg.params
    fam = parse_family(p)
    sp = weights.ScaleProfile(weights.build_sequence(fam, int(p.get("l_max", 1 << 16))))
    fp = parse_omega(p)
    rep = dioph.br_test(sp, fp, s=float(p.get("s", 1.0)),
                        eta=float(p.get("eta", 0.0)), n=int(p.get("n", 2)),
                        i_max=int(p.get("i_max", 24)), c2=float(p.get("c2", 1.0)))
    out = Path(cfg.outdir)
    rows = [(i, float(rep.Q_list[i]), float(rep.sigmas[i]),
             float(rep.partial_sums[i])) for i in range(len(rep.sigmas))]
    write_csv(out / "brtest.csv", ["i", "Q_i", "sigma_i", "partial_sum"], rows)
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(), "verdict": rep.verdict,
        "Q0": rep.Q0 if rep.Q0 is not None else "none",
        "budget": rep.budget, "total_with_tail": rep.total_with_tail,
        "tail_ratio": rep.tail_ratio, "tail_slope": rep.tail_slope,
        "product_lower": rep.product_lower, "notes": rep.notes,
    })
    return EXIT_OK if rep.verdict == "ConvergedWithinBudget" else EXIT_BUDGET


def _toy_nf_hamiltonian(cfg: ExperimentConfig):
    p = cfg.params
    K = int(p.get("k_max", 16))
    eps = float(p.get("eps", 1e-4))
    eta = float(p.get("eta", 1e-5))
    pv = dioph.periodic_from_rational((1, 0), 1)
    H = normal_forms.linear_integrable(pv.v, 2, K, D_I=1)
    H.set_mode((0, 0), eta / weights.C_NORM, m=(0, 1))
    rng = np.random.default_rng(cfg.seed)
    for k in [(1, 1), (2, -1), (0, 1), (3, 2), (1, 0)]:
        H.add_cos(k, eps * rng.uniform(0.5, 1.0))
    return H, pv


def cmd_nf(cfg: ExperimentConfig) -> int:
    p = cfg.params
    fam = parse_family(p)
    sp = weights.ScaleProfile(weights.build_sequence(fam, int(p.get("l_max", 1 << 16))))
    if "hamiltonian" in p:
        H = FTSeries.from_text(Path(p["hamiltonian"]).read_text())
        tv = [int(x) for x in str(p.get("v", "1,0")).split(",")]
        T = int(p.get("T", 1))
        pv = dioph.periodic_from_rational(tv, T)
    else:
        H, pv = _toy_nf_hamiltonian(cfg)
    res = normal_forms.periodic_normal_form(H, pv, sp, s=float(p.get("s", 1.0)),
                                            xi=float(p.get("xi", 2.0)),
                                            A=float(p.get("A", 1.0)))
    out = Path(cfg.outdir)
    rows = [(e["step"], e["width"], e["remainder_cert"], e["budget"],
             int(e["within_budget"])) for e in res.schedule_log]
    write_csv(out / "stages.csv",
              ["stage", "width", "remainder_cert", "predicted_bound",
               "within_budget"], rows)
    (out / "resonant.fts").write_text(res.resonant.to_text())
    (out / "remainder.fts").write_text(res.remainder.to_text())
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(), "steps": len(res.schedule_log),
        "cert_before": res.cert_before, "cert_after": res.cert_after,
        "predicted_bound": res.predicted_bound
        if res.predicted_bound is not None else "none",
        "final_width": res.final_width,
        "commutation_defect": res.commutation_defect(),
        "warnings": "; ".join(res.warnings) if res.warnings else "none",
    })
    return EXIT_OK


def cmd_kam(cfg: ExperimentConfig) -> int:
    p = cfg.params
    fam = parse_family({**p, "alpha": p.get("alpha", 2.0)})
    sp = weights.ScaleProfile(weights.build_sequence(fam, int(p.get("l_max", 1 << 16))))
    fp = parse_omega(p)
    K = int(p.get("k_max", 32))
    eps = float(p.get("eps", 1e-4))
    s = float(p.get("s", 0.5))
    if "perturbation" in p:
        f = FTSeries.from_text(Path(p["perturbation"]).read_text())
    else:
        f = FTSeries.zeros(2, K).add_cos((1, 0)).add_cos((1, 1), 0.8)
        f.add_sin((2, 1), 0.5)
    omega0 = fp.omega[:2]
    kh = normal_forms.kam_hamiltonian_from_mechanical(f, eps, omega0, K=K)
    dfn = normal_forms.mechanical_defect_fn(f, eps, omega0,
                                            n_grid=int(p.get("defect_grid", 48)))
    try:
        sched = normal_forms.KamSchedule.build(
            sp, fp, s=s, n=2, i_max=max(int(p.get("n_iter", 6)) + 2, 8),
            c2=float(p.get("c2", 1.0)))
    except HorizonError as exc:
        write_manifest(Path(cfg.outdir) / "manifest.txt", {
            **cfg.as_manifest_dict(), "error": str(exc)})
        return EXIT_BUDGET
    res = normal_forms.kam_iterate(kh, fp, sp, s=s,
                                   n_iter=int(p.get("n_iter", 6)),
                                   schedule=sched, defect_fn=dfn,
                                   tol=float(p.get("tol", 1e-9)))
    out = Path(cfg.outdir)
    rows = []
    width = s
    eps0 = kh.certs(sp, s)["A"]
    for i, entry in enumerate(res.cert_log):
        d = res.defects[i] if i < len(res.defects) else math.nan
        width *= (1.0 - entry["sigma"]) ** 5
        rows.append((entry["iter"], entry["Q"], entry["sigma"], width, d,
                     entry["A"], entry["B"], eps0 * 16.0 ** (-(i + 1))))
    write_csv(out / "iterations.csv",
              ["iter", "Q_i", "sigma_i", "width", "defect", "cert_A",
               "cert_B", "predicted_bound"], rows)
    for i, e in enumerate(res.embedding_theta):
        (out / f"embedding_E{i+1}.fts").write_text(e.to_text())
    for i, g in enumerate(res.embedding_I):
        (out / f"embedding_G{i+1}.fts").write_text(g.to_text())
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(), "Q0": sched.Q0,
        "sigma_budget": sched.budget, "product_lower": sched.product_lower,
        "omega_star": list(res.omega_star), "defects": res.defects,
        "converged": res.converged, "tol": float(p.get("tol", 1e-9)),
    })
    return EXIT_OK if res.converged else EXIT_BUDGET


def cmd_diffuse(cfg: ExperimentConfig) -> int:
    p = cfg.params
    fam = parse_family({**p, "alpha": p.get("alpha", 2.0)})
    sp = weights.ScaleProfile(weights.build_sequence(fam, int(p.get("l_max", 1 << 14))))
    fp = parse_omega(p)
    j = int(p.get("j", 5))
    s = float(p.get("s", 1.0))
    ex = instability.build_linear_diffusion(fp, j, s=s, sp=sp, n=int(p.get("n", 3)))
    t_grid = np.linspace(0.0, float(p.get("t_end", 1000.0)), int(p.get("t_n", 21)))
    res = instability.run_linear_diffusion(ex, np.zeros(3), np.zeros(3), t_grid,
                                           dt=float(p.get("dt", 0.5)))
    sw = instability.diffusion_sandwich(ex, fp, sp)
    out = Path(cfg.outdir)
    rows = [(float(t),) + tuple(float(x) for x in res["closed_I"][i])
            + (float(res["drift_l1"][i]),) for i, t in enumerate(t_grid)]
    write_csv(out / "drift.csv",
              ["t"] + [f"I{i+1}" for i in range(3)] + ["drift_l1"], rows)
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(), "j": j, "k": list(ex.k.astype(int)),
        "eps_j": ex.eps_j, "mu_j": ex.mu_j, "rate": ex.drift_rate(),
        "sandwich_lower": sw["lower"], "sandwich_upper": sw["upper"],
        "sandwich_ok": sw["ok"], "integrator_error": res["integrator_error"],
    })
    return EXIT_OK


def cmd_ms(cfg: ExperimentConfig) -> int:
    p = cfg.params
    mode = str(p.get("mode", "exact"))
    out = Path(cfg.outdir)
    manifest = dict(cfg.as_manifest_dict())
    if mode == "exact":
        q = int(p.get("q", 50))
        cm = instability.coupled_map(q)
        res = instability.run_coupled_drift(cm)
        stride = max(1, q * q // int(p.get("csv_rows", 400)))
        rows = [(k, float(res["I1"][k])) for k in range(0, q * q + 1, stride)]
        if rows[-1][0] != q * q:
            rows.append((q * q, float(res["I1"][-1])))
        write_csv(out / "drift.csv", ["step", "I1"], rows)
        verify = bool(p.get("verify_drift", False))
        manifest.update({"mode": mode, "q": q,
                         "final_I1": float(res["final"][1]),
                         "drift_error": res["drift_error"],
                         "a_return_error": res["a_return_error"],
                         "verify_drift": verify})
        # --verify-drift also checks the coupling lemma's return of the rotator point
        ok = res["drift_error"] <= 1e-9 and (not verify or res["a_return_error"] <= 1e-9)
    else:
        if "verify_drift" in p:
            raise ParameterError("--verify-drift applies to --mode exact only")
        fam = parse_family({**p, "alpha": p.get("alpha", 2.0)})
        sp = weights.ScaleProfile(weights.build_sequence(fam, int(p.get("l_max", 1 << 14))))
        msc = instability.build_ms(int(p.get("n", 3)), int(p.get("j", 2)),
                                   s=float(p.get("s", 0.05)), sp=sp,
                                   exponent_mode=str(p.get("exponent_mode", "proof")))
        sync = instability.synchronization_check(msc)
        manifest.update({
            "mode": mode, "n": msc.n, "j": msc.j, "A_prime": msc.A_prime,
            "A": msc.A, "B": msc.B, "q": msc.q, "cert_g": msc.cert_g,
            "cert_budget": msc.cert_budget,
            "cert_ok": msc.cert_g <= msc.cert_budget,
            "sync_passed": sync["passed"],
            "sync_max_g": sync["max_g_on_orbit"],
            "sync_max_dg": sync["max_dg_on_orbit"],
            "exponent_mode": msc.exponent_mode,
        })
        ok = sync["passed"] and msc.cert_g <= msc.cert_budget
    write_manifest(out / "manifest.txt", manifest)
    return EXIT_OK if ok else EXIT_BUDGET


def cmd_bessi(cfg: ExperimentConfig) -> int:
    p = cfg.params
    fam = parse_family({**p, "alpha": p.get("alpha", 4.0)})
    sp = weights.ScaleProfile(weights.build_sequence(fam, int(p.get("l_max", 1 << 20))))
    s0 = float(p.get("s0", 1.0))
    s = float(p.get("s", 0.5))
    if "omega" in p:
        fp = parse_omega(p)
    else:
        conv, x = dioph.liouville_convergents(
            sp, s0=s0, n_steps=int(p.get("n_steps", 8)),
            growth=instability.liouville_growth_for_bessi(sp, s0))
        fp = dioph.profile_from_prescribed(conv, omega_value=x)
    ex = instability.build_bessi(fp, sp, s0=s0, s=s,
                                 eps=float(p.get("eps", 0.1)),
                                 mu=float(p.get("mu", 0.5)))
    out = Path(cfg.outdir)
    rows = [(i, int(np.sum(np.abs(ex.ks[i]))), ex.nus[i], ex.certs[i],
             ex.growth[i]) for i in range(len(ex.ks))]
    write_csv(out / "bessi.csv", ["j", "k_norm", "nu", "cert", "growth"], rows)
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(), "candidates": len(ex.ks),
        "candidates_found": ex.candidates_found,
        "cert_bound_4c_eps": 4.0 * weights.C_NORM * ex.eps,
        "all_certs_ok": all(c <= 4.0 * weights.C_NORM * ex.eps for c in ex.certs),
        "growth_increasing": bool(np.all(np.diff(ex.growth) > 0))
        if len(ex.growth) > 1 else True,
        "c_orth": ex.c_orth,
    })
    if not ex.candidates_found:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_report(cfg: ExperimentConfig) -> int:
    paths = cfg.params.get("inputs", [])
    if isinstance(paths, str):
        paths = [paths]
    rows = []
    missing = 0
    for raw in sorted(paths):
        path = Path(raw)
        if not path.exists():
            rows.append((str(path), "SKIPPED", "missing artifact"))
            missing += 1
            continue
        text = path.read_text()
        if text.startswith("ACCEPTANCE"):
            for line in text.splitlines():
                head, _, detail = line.partition(" - ")
                rows.append((str(path), head.replace("ACCEPTANCE ", ""), detail))
            continue
        entries = {}
        for line in text.splitlines():
            if " = " in line:
                k, v = line.split(" = ", 1)
                entries[k] = v
        verdictish = [v for k, v in sorted(entries.items())
                      if k in ("verdict", "converged", "sandwich_ok",
                               "sync_passed", "all_certs_ok", "cert_ok",
                               "H1_pass", "passed")]
        status = ",".join(verdictish) if verdictish else "reported"
        rows.append((str(path), "OK", status))
    out = Path(cfg.outdir)
    write_csv(out / "report.csv", ["artifact", "status", "verdicts"], rows)
    return EXIT_OK if missing == 0 else EXIT_BUDGET


COMMANDS = {
    "weights": cmd_weights, "dioph": cmd_dioph, "brtest": cmd_brtest,
    "nf": cmd_nf, "kam": cmd_kam, "diffuse": cmd_diffuse, "ms": cmd_ms,
    "bessi": cmd_bessi, "report": cmd_report,
}

_FLAGS = {
    "family": str, "alpha": float, "beta": float, "l_max": int,
    "sigma_grid": str, "y_grid": str, "table_rows": int,
    "omega": str, "q_max": int, "s": float, "eta": float, "n": int,
    "i_max": int, "c2": float, "k_max": int, "eps": float, "xi": float,
    "A": float, "hamiltonian": str, "perturbation": str, "v": str, "T": int,
    "n_iter": int, "tol": float, "defect_grid": int, "j": int,
    "t_end": float, "t_n": int, "dt": float, "mode": str, "q": int,
    "csv_rows": int, "exponent_mode": str, "s0": float, "mu": float,
    "n_steps": int, "norm": str,
}


def build_parser():
    ap = argparse.ArgumentParser(prog="udham",
                                 description="ultra-differentiable Hamiltonian lab")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in sorted(COMMANDS):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--outdir", default=None)
        sp.add_argument("--seed", type=int, default=0)
        if name == "report":
            sp.add_argument("inputs", nargs="*")
        if name == "ms":
            sp.add_argument("--verify-drift", action="store_true",
                            dest="verify_drift")
        for flag, typ in sorted(_FLAGS.items()):
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                            type=typ, default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    params = {}
    outdir = None
    try:
        if ns.config:
            file_params = load_config_file(ns.config)
            outdir = file_params.pop("outdir", None)
            params.update(file_params)
        for flag in _FLAGS:
            val = getattr(ns, flag, None)
            if val is not None:
                params[flag] = val
        if getattr(ns, "verify_drift", False):
            params["verify_drift"] = True
        if ns.subcommand == "report":
            params["inputs"] = list(getattr(ns, "inputs", []) or params.get("inputs", []))
        if ns.outdir:
            outdir = ns.outdir
        cfg = ExperimentConfig(subcommand=ns.subcommand, params=params,
                               outdir=outdir or f"runs/{ns.subcommand}",
                               seed=ns.seed)
    except (ParameterError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code = COMMANDS[ns.subcommand](cfg)
    except (ParameterError, dioph.ResonanceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HorizonError, dioph.BudgetError, dioph.UnsupportedError,
            flows.LieDivergence, flows.StiffnessError) as exc:
        write_manifest(Path(cfg.outdir) / "manifest.txt", {
            **cfg.as_manifest_dict(), "error": str(exc)})
        print(f"budget/horizon: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return code


if __name__ == "__main__":
    sys.exit(main())
