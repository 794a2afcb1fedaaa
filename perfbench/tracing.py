"""Per-layer spans around the calls into udham's public functions.

`install(tracer)` rebinds each traced function in every loaded udham module
that holds it by name (`flows` and `normal_forms` import `product`,
`poisson_bracket` and others directly), and each traced method on its
class, so calls made inside the package are caught too.  A span records
calls, inclusive seconds (outermost activation only, so recursion is not
counted twice) and self seconds (inclusive minus the traced spans it
encloses).  Spans stay in memory until `snapshot`.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (metric prefix, module, attribute path)
TRACED = [
    ("weights.build_sequence", "weights", "build_sequence"),
    ("weights.cauchy_c_inv", "weights", "ScaleProfile.cauchy_c_inv"),
    ("dioph.br_test", "dioph", "br_test"),
    ("dioph.zbasis_approx", "dioph", "zbasis_approx"),
    ("series.product", "series", "product"),
    ("series.poisson_bracket", "series", "poisson_bracket"),
    ("series.solve_homological_periodic", "series", "solve_homological_periodic"),
    ("series.norm_upper", "series", "norm_upper"),
    ("series.eval_blocks", "series", "FTSeries.eval_blocks"),
    ("flows.compose_angle", "flows", "compose_angle"),
    ("flows.apply_affine", "flows", "apply_affine"),
    ("flows.compose_affine", "flows", "compose_affine"),
    ("flows.affine_flow_lie", "flows", "affine_flow_lie"),
    ("flows.lie_flow", "flows", "lie_flow"),
    ("normal_forms.kam_step", "normal_forms", "kam_step"),
    ("normal_forms.kam_iterate", "normal_forms", "kam_iterate"),
    ("normal_forms.KamSchedule.build", "normal_forms", "KamSchedule.build"),
    ("normal_forms.averaging_step", "normal_forms", "averaging_step"),
    ("normal_forms.periodic_normal_form", "normal_forms", "periodic_normal_form"),
    ("instability.synchronization_check", "instability", "synchronization_check"),
    ("instability.run_coupled_drift", "instability", "run_coupled_drift"),
    ("instability.run_linear_diffusion", "instability", "run_linear_diffusion"),
    ("instability.build_bessi", "instability", "build_bessi"),
]
CLI_SUBCOMMANDS = ("weights", "dioph", "brtest", "nf", "kam", "diffuse", "ms",
                   "bessi", "report")
COUNTS = ("series.product.block_pairs", "series.eval_blocks.coeff_points")


def _product_pairs(f, g, *args, **kwargs):
    return "series.product.block_pairs", len(f.blocks) * len(g.blocks)


def _eval_points(series, theta_pts, *args, **kwargs):
    points = len(np.atleast_2d(np.asarray(theta_pts)))
    return ("series.eval_blocks.coeff_points",
            len(series.blocks) * (2 * series.K + 1) ** series.n * points)


COUNT_HOOKS = {"series.product": _product_pairs,
               "series.eval_blocks": _eval_points}


def metric_names() -> list:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name, _, _ in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    out += [(c, "count") for c in COUNTS]
    out += [("cli.import.s", "s")]
    out += [(f"cli.{sub}.s", "s") for sub in CLI_SUBCOMMANDS]
    out += [("cli.artifacts.s", "s"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.stats = {}       # name -> [calls, inclusive_s, self_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []      # child seconds of each open span
        self._depth = {}

    def wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                key, n = hook(*args, **kwargs)
                self.counts[key] += n
            self._stack.append(0.0)
            self._depth[name] = self._depth.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                self._depth[name] -= 1
                st = self.stats[name]
                st[0] += 1
                st[2] += dt - child
                if self._depth[name] == 0:
                    st[1] += dt
                if self._stack:
                    self._stack[-1] += dt
        return traced

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}


def _udham_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "udham" or name.startswith("udham."))]


def install(tracer: Tracer):
    """Rebind every traced function and method of the loaded udham package."""
    import udham
    from udham import cli, series

    mods = _udham_modules()
    for name, modname, path in TRACED:
        mod = getattr(udham, modname)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
            continue
        orig = getattr(mod, path)
        wrapped = tracer.wrap(name, orig)
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapped)
    for sub in CLI_SUBCOMMANDS:
        cli.COMMANDS[sub] = tracer.wrap(f"cli.{sub}", cli.COMMANDS[sub])
    cli.write_csv = tracer.wrap("cli.artifacts", cli.write_csv)
    cli.write_manifest = tracer.wrap("cli.artifacts", cli.write_manifest)
    series.FTSeries.to_text = tracer.wrap("cli.artifacts", series.FTSeries.to_text)


def merge(snapshots) -> dict:
    """Sum a list of snapshots (one per traced process or pass)."""
    stats, counts = {}, dict.fromkeys(COUNTS, 0)
    for snap in snapshots:
        for k, v in snap["stats"].items():
            acc = stats.setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in snap["counts"].items():
            counts[k] += v
    return {"stats": stats, "counts": counts}


def metrics(snap: dict, passes: int, import_s: float, overhead_s: float) -> dict:
    """Per-pass per-layer metrics from a merged snapshot of `passes` passes."""
    units = dict(metric_names())
    vals = {}
    st = snap["stats"]
    for name, _, _ in TRACED:
        calls, incl, self_s = st.get(name, [0, 0.0, 0.0])
        vals[f"{name}.calls"] = calls / passes
        vals[f"{name}.s"] = incl / passes
        vals[f"{name}.self_s"] = self_s / passes
    for c in COUNTS:
        vals[c] = snap["counts"].get(c, 0) / passes
    vals["cli.import.s"] = import_s
    for sub in CLI_SUBCOMMANDS:
        vals[f"cli.{sub}.s"] = st.get(f"cli.{sub}", [0, 0.0, 0.0])[1] / passes
    vals["cli.artifacts.s"] = st.get("cli.artifacts", [0, 0.0, 0.0])[1] / passes
    vals["trace.overhead_s"] = overhead_s
    return {k: {"value": v, "unit": units[k]} for k, v in vals.items()}
