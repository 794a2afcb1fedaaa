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

    @property
    def values(self) -> dict:
        """The command's defaults overlaid by the given params."""
        return {**COMMAND_FLAGS[self.subcommand], **self.params}


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
    name = params["family"]
    # one entry per family; a "-" in a name may also be spelled "_" or left out
    builders = {"analytic": weights.analytic,
                "gevrey": lambda: weights.gevrey(params["alpha"]),
                "gevrey-log": lambda: weights.gevrey_log(params["alpha"], params["beta"]),
                "exp-log": weights.exp_log, "exp-sqrt": weights.exp_sqrt}
    for family, build in builders.items():
        if name in (family, family.replace("-", "_"), family.replace("-", "")):
            return build()
    raise ParameterError(f"unknown family {name!r}")


def scale_profile(params) -> weights.ScaleProfile:
    return weights.ScaleProfile(weights.build_sequence(parse_family(params), params["l_max"]))


def parse_omega(params):
    spec = params["omega"]
    try:
        vals = [float(x) for x in spec.split(",")]
    except ValueError:
        return dioph.named_profile(spec)
    om = np.array(vals + [0.0] * (2 - len(vals)))
    if len(vals) == 2 and abs(om[0] - 1.0) < 1e-15 and om[1] > 0:
        return dioph.profile_from_cf(om)
    return dioph.profile_from_brute(om, params["q_max"])


def read_series(path: str) -> FTSeries:
    """An .fts file; a missing or malformed one is a config error."""
    try:
        return FTSeries.from_text(Path(path).read_text())
    except (OSError, ValueError, IndexError) as exc:
        raise ParameterError(f"cannot read series file {path!r}: {exc}") from None


# flag types take a command-line string or a config-file value, and reject
# a value the command would read otherwise than written (2.5 as a count)

def count(text) -> int:
    """A count: an integer of at least 1 (not a float or a bool)."""
    if isinstance(text, (bool, float)) or int(text) < 1:
        raise ParameterError(f"a count must be an integer of at least 1, got {text!r}")
    return int(text)


def finite(text) -> float:
    """A finite number (not a bool)."""
    x = math.nan if isinstance(text, bool) else float(text)
    if not math.isfinite(x):
        raise ParameterError(f"expected a finite number, got {text!r}")
    return x


def positive(text) -> float:
    """A finite number greater than 0."""
    x = finite(text)
    if not x > 0.0:
        raise ParameterError(f"expected a finite number > 0, got {x}")
    return x


def nonnegative(text) -> float:
    """A finite number of at least 0."""
    x = finite(text)
    if not x >= 0.0:
        raise ParameterError(f"expected a finite number >= 0, got {x}")
    return x


def switch(value) -> bool:
    """An on/off flag: set on the command line, true or false in a config file."""
    if not isinstance(value, bool):
        raise ParameterError(f"expected true or false, got {value!r}")
    return value


def _grid(spec: str):
    """Log-spaced grid from "lo:hi[:n]" (33 points by default)."""
    parts = spec.split(":")
    try:
        lo, hi, n = (*parts, 33) if len(parts) == 2 else parts
        return np.geomspace(float(lo), float(hi), count(n))
    except ValueError as exc:
        raise ParameterError(f"grid {spec!r} is not lo:hi[:n] ({exc})") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_weights(cfg: ExperimentConfig) -> int:
    p = cfg.values
    sigmas, ys = _grid(p["sigma_grid"]), _grid(p["y_grid"])
    sp = scale_profile(p)
    ws, L = sp.ws, p["l_max"]
    out = Path(cfg.outdir)
    l_rows = [(l, float(ws.log_M[l]),
               float(ws.log_mu[l]) if l < L else math.nan,
               float(ws.log_N[l]),
               float(math.exp(ws.log_nu[l])) if l < L else math.nan)
              for l in range(min(L, p["table_rows"]) + 1)]
    write_csv(out / "weights.csv",
              ["l", "M_l_log", "mu_l_log", "N_l_log", "nu_l"], l_rows)
    rows = []
    for sig in sigmas:
        r = sp.cauchy_c(float(sig))
        rows.append((float(sig), r.value, r.argmax, int(r.certified)))
    write_csv(out / "cauchy.csv", ["sigma", "C", "argmax", "certified"], rows)
    rows = []
    for y in ys:
        try:
            r = sp.omega(float(y))
            rows.append((float(y), r.value, r.argmax))
        except HorizonError:
            break
    write_csv(out / "omega.csv", ["y", "Omega", "argmax"], rows)
    rep = weights.check_conditions(ws)
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(),
        "family": ws.family_tag, "L_max": L, "sigma_bar": sp.sigma_bar,
        "sigma_bar_capped": sp.sigma_bar_capped,
        "H1_pass": rep.h1_pass, "H2_tail_max": rep.h2_tail_max,
        "H3_partial_sum": rep.h3_partial_sum, "MG_value": rep.mg_value,
        "known_verdicts": rep.known_verdicts,
    })
    return EXIT_OK


def cmd_dioph(cfg: ExperimentConfig) -> int:
    p = cfg.values
    fp = parse_omega(p)
    norm = p["norm"]
    if norm == "linf":
        fp = dioph.profile_linf(fp)
    elif norm != "l1":
        raise ParameterError(f"unknown lattice norm {norm!r}")
    rows = []
    try:
        for Q in range(1, p["q_max"] + 1):
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
    p = cfg.values
    sp = scale_profile(p)
    fp = parse_omega(p)
    rep = dioph.br_test(sp, fp, s=p["s"], eta=p["eta"], n=p["n"], i_max=p["i_max"], c2=p["c2"])
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
    p = cfg.values
    pv = dioph.periodic_from_rational((1, 0), 1)
    H = normal_forms.linear_integrable(pv.v, 2, p["k_max"], D_I=1)
    H.set_mode((0, 0), p["eta"] / weights.C_NORM, m=(0, 1))
    rng = np.random.default_rng(cfg.seed)
    for k in [(1, 1), (2, -1), (0, 1), (3, 2), (1, 0)]:
        H.add_cos(k, p["eps"] * rng.uniform(0.5, 1.0))
    return H, pv


def cmd_nf(cfg: ExperimentConfig) -> int:
    p = cfg.values
    sp = scale_profile(p)
    if p["hamiltonian"] is None:
        H, pv = _toy_nf_hamiltonian(cfg)
    else:
        H = read_series(p["hamiltonian"])
        try:
            pv = dioph.periodic_from_rational(p["v"].split(","), p["T"])
        except ValueError:
            raise ParameterError(f"--v must be integers k1,...,kn, got {p['v']!r}") from None
    res = normal_forms.periodic_normal_form(H, pv, sp, s=p["s"], xi=p["xi"], A=p["A"])
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
    p = cfg.values
    sp = scale_profile(p)
    fp = parse_omega(p)
    K, s = p["k_max"], p["s"]
    if p["perturbation"] is None:
        f = FTSeries.zeros(2, K).add_cos((1, 0)).add_cos((1, 1), 0.8)
        f.add_sin((2, 1), 0.5)
    else:
        f = read_series(p["perturbation"])
    omega0 = fp.omega[:2]
    kh = normal_forms.kam_hamiltonian_from_mechanical(f, p["eps"], omega0, K=K)
    dfn = normal_forms.mechanical_defect_fn(f, p["eps"], omega0, n_grid=p["defect_grid"])
    sched = normal_forms.KamSchedule.build(sp, fp, s=s, n=2,
                                           i_max=max(p["n_iter"] + 2, 8), c2=p["c2"])
    res = normal_forms.kam_iterate(kh, fp, sp, s=s, n_iter=p["n_iter"], schedule=sched,
                                   defect_fn=dfn, tol=p["tol"])
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
        "converged": res.converged, "tol": p["tol"],
    })
    return EXIT_OK if res.converged else EXIT_BUDGET


def cmd_diffuse(cfg: ExperimentConfig) -> int:
    p = cfg.values
    sp = scale_profile(p)
    fp = parse_omega(p)
    ex = instability.build_linear_diffusion(fp, p["j"], s=p["s"], sp=sp, n=p["n"])
    t_grid = np.linspace(0.0, p["t_end"], p["t_n"])
    res = instability.run_linear_diffusion(ex, np.zeros(3), np.zeros(3), t_grid, dt=p["dt"])
    sw = instability.diffusion_sandwich(ex, fp, sp)
    out = Path(cfg.outdir)
    rows = [(float(t),) + tuple(float(x) for x in res["closed_I"][i])
            + (float(res["drift_l1"][i]),) for i, t in enumerate(t_grid)]
    write_csv(out / "drift.csv",
              ["t"] + [f"I{i+1}" for i in range(3)] + ["drift_l1"], rows)
    write_manifest(out / "manifest.txt", {
        **cfg.as_manifest_dict(), "j": p["j"], "k": list(ex.k.astype(int)),
        "eps_j": ex.eps_j, "mu_j": ex.mu_j, "rate": ex.drift_rate(),
        "sandwich_lower": sw["lower"], "sandwich_upper": sw["upper"],
        "sandwich_ok": sw["ok"], "integrator_error": res["integrator_error"],
    })
    return EXIT_OK


def cmd_ms(cfg: ExperimentConfig) -> int:
    p = cfg.values
    mode = p["mode"]
    if mode not in ("exact", "pendulum"):
        raise ParameterError(f"unknown ms mode {mode!r} (exact or pendulum)")
    out = Path(cfg.outdir)
    manifest = dict(cfg.as_manifest_dict())
    if mode == "exact":
        q = p["q"]
        cm = instability.coupled_map(q)
        res = instability.run_coupled_drift(cm)
        stride = max(1, q * q // p["csv_rows"])
        rows = [(k, float(res["I1"][k])) for k in range(0, q * q + 1, stride)]
        if rows[-1][0] != q * q:
            rows.append((q * q, float(res["I1"][-1])))
        write_csv(out / "drift.csv", ["step", "I1"], rows)
        verify = p["verify_drift"]
        manifest.update({"mode": mode, "q": q,
                         "final_I1": float(res["final"][1]),
                         "drift_error": res["drift_error"],
                         "a_return_error": res["a_return_error"],
                         "verify_drift": verify})
        # --verify-drift also checks the coupling lemma's return of the rotator point
        ok = res["drift_error"] <= 1e-9 and (not verify or res["a_return_error"] <= 1e-9)
    else:
        if "verify_drift" in cfg.params:
            raise ParameterError("--verify-drift applies to --mode exact only")
        msc = instability.build_ms(p["n"], p["j"], s=p["s"], sp=scale_profile(p))
        sync = instability.synchronization_check(msc)
        manifest.update({
            "mode": mode, "n": msc.n, "j": msc.j, "A_prime": msc.A_prime,
            "A": msc.A, "B": msc.B, "q": msc.q, "cert_g": msc.cert_g,
            "cert_budget": msc.cert_budget,
            "cert_ok": msc.cert_g <= msc.cert_budget,
            "sync_passed": sync["passed"],
            "sync_max_g": sync["max_g_on_orbit"],
            "sync_max_dg": sync["max_dg_on_orbit"],
            "B_formula_proof": msc.log["B_formula"]["proof"],
            "B_formula_statement": msc.log["B_formula"]["statement"],
        })
        ok = sync["passed"] and msc.cert_g <= msc.cert_budget
    write_manifest(out / "manifest.txt", manifest)
    return EXIT_OK if ok else EXIT_BUDGET


def cmd_bessi(cfg: ExperimentConfig) -> int:
    p = cfg.values
    sp = scale_profile(p)
    if p["omega"] is None:
        conv, x = dioph.liouville_convergents(
            sp, s0=p["s0"], n_steps=p["n_steps"],
            growth=instability.liouville_growth_for_bessi(sp, p["s0"]))
        fp = dioph.profile_from_prescribed(conv, omega_value=x)
    else:
        fp = parse_omega(p)
    ex = instability.build_bessi(fp, sp, s0=p["s0"], s=p["s"], eps=p["eps"], mu=p["mu"])
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
    return EXIT_OK if ex.candidates_found else EXIT_BUDGET


def cmd_report(cfg: ExperimentConfig) -> int:
    paths = cfg.params.get("inputs", [])
    rows = []
    missing = 0
    for raw in sorted(paths):
        path = Path(raw)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            reason = "missing" if isinstance(exc, FileNotFoundError) else "unreadable"
            rows.append((str(path), "SKIPPED", f"{reason} artifact"))
            missing += 1
            continue
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
    "family": str, "alpha": finite, "beta": finite, "l_max": count,
    "sigma_grid": str, "y_grid": str, "table_rows": count,
    "omega": str, "q_max": count, "s": positive, "eta": nonnegative, "n": count,
    "i_max": count, "c2": positive, "k_max": count, "eps": finite, "xi": finite,
    "A": positive, "hamiltonian": str, "perturbation": str, "v": str, "T": count,
    "n_iter": count, "tol": positive, "defect_grid": count, "j": count,
    "t_end": positive, "t_n": count, "dt": positive, "mode": str, "q": count,
    "csv_rows": count, "s0": positive, "mu": finite,
    "n_steps": count, "norm": str, "verify_drift": switch,
}


# each command's flags, in any of its modes, with their defaults: a value of the
# flag's type, or None for an input that may be absent.  scale_profile reads
# _WEIGHTS (parse_family the first three) and parse_omega reads _OMEGA.
_WEIGHTS = {"family": "gevrey", "alpha": 1.0, "beta": 0.0, "l_max": 1 << 16}
_OMEGA = {"omega": "golden", "q_max": 60}
COMMAND_FLAGS = {
    "weights": {**_WEIGHTS, "l_max": weights.DEFAULT_L_MAX, "sigma_grid": "1e-3:0.5",
                "y_grid": "1.5:1e6", "table_rows": 256},
    "dioph": {**_OMEGA, "q_max": 100, "norm": "l1"},
    "brtest": {**_WEIGHTS, **_OMEGA, "s": 1.0, "eta": 0.0, "n": 2, "i_max": 24, "c2": 1.0},
    "nf": {**_WEIGHTS, "hamiltonian": None, "v": "1,0", "T": 1, "k_max": 16, "eps": 1e-4,
           "eta": 1e-5, "s": 1.0, "xi": 2.0, "A": 1.0},
    "kam": {**_WEIGHTS, "alpha": 2.0, **_OMEGA, "k_max": 32, "eps": 1e-4, "s": 0.5,
            "perturbation": None, "defect_grid": 48, "n_iter": 6, "c2": 1.0, "tol": 1e-9},
    "diffuse": {**_WEIGHTS, "alpha": 2.0, "l_max": 1 << 14, **_OMEGA, "j": 5, "s": 1.0,
                "n": 3, "t_end": 1000.0, "t_n": 21, "dt": 0.5},
    "ms": {**_WEIGHTS, "alpha": 2.0, "l_max": 1 << 14, "mode": "exact", "q": 50,
           "csv_rows": 400, "verify_drift": False, "n": 3, "j": 2, "s": 0.05},
    "bessi": {**_WEIGHTS, "alpha": 4.0, "l_max": 1 << 20, **_OMEGA, "omega": None,
              "s0": 1.0, "s": 0.5, "n_steps": 8, "eps": 0.1, "mu": 0.5},
    "report": {},
}


def build_parser():
    ap = argparse.ArgumentParser(prog="udham",
                                 description="ultra-differentiable Hamiltonian lab")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in sorted(COMMANDS):
        # no abbreviations: --q must not stand for --q-max where only that is read
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", default=None)
        sp.add_argument("--outdir", default=None)
        sp.add_argument("--seed", type=int, default=0)
        if name == "report":
            sp.add_argument("inputs", nargs="*")
        for flag in sorted(COMMAND_FLAGS[name]):
            typ = _FLAGS[flag]
            kind = {"action": "store_true"} if typ is switch else {"type": typ}
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag, default=None, **kind)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    cmd = ns.subcommand
    params = {}
    outdir = None
    try:
        if ns.config:
            file_params = load_config_file(ns.config)
            outdir = file_params.pop("outdir", None)
            for key, value in file_params.items():
                if key not in COMMAND_FLAGS[cmd] and (cmd, key) != ("report", "inputs"):
                    raise ParameterError(f"{cmd} does not read config key {key!r}")
                # a value must have its flag's type, and is kept as that type
                params[key] = _FLAGS[key](value) if key in _FLAGS else value
        params.update({flag: val for flag in COMMAND_FLAGS[cmd]
                       if (val := getattr(ns, flag)) is not None})
        if cmd == "report":   # a config file may name one input as a string
            inputs = ns.inputs or params.get("inputs", [])
            params["inputs"] = [inputs] if isinstance(inputs, str) else list(inputs)
        cfg = ExperimentConfig(subcommand=cmd, params=params,
                               outdir=ns.outdir or outdir or f"runs/{cmd}", seed=ns.seed)
    except (ValueError, TypeError, OSError) as exc:   # ParameterError, JSONDecodeError too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code = COMMANDS[cmd](cfg)
    except (ParameterError, dioph.ResonanceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HorizonError, dioph.BudgetError, dioph.UnsupportedError,
            flows.LieDivergence, flows.StiffnessError, flows.QuadratureError) as exc:
        write_manifest(Path(cfg.outdir) / "manifest.txt", {
            **cfg.as_manifest_dict(), "error": str(exc)})
        print(f"budget/horizon: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return code


if __name__ == "__main__":
    sys.exit(main())
