"""The benchmark's workloads: their inputs and the operations of one pass.

Each workload is a fixed list of udham CLI invocations.  `write_inputs`
writes everything a pass reads into one directory; the same seed gives the
same bytes.  Only `nf_averaging` draws from the seed: the KAM perturbation
is the README's f and the lab commands are the README's argv lists.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from artifacts import write_fts

WORKLOADS = ("kam_torus", "nf_averaging", "lab_cli")
PASS_DIR = "pass"        # every pass writes its artifacts here, relative to the run dir

# kam_torus: the README headline; the CLI's built-in f is
#   f = cos 2pi th1 + 0.8 cos 2pi (th1 + th2) + 0.5 sin 2pi (2 th1 + th2).
KAM_EPS = 1e-4
KAM_TOL = 1e-9
KAM_ARGV = ["kam", "--family", "gevrey", "--alpha", "2", "--omega", "golden",
            "--k-max", "32", "--eps", "1e-4"]

# nf_averaging: H = L_v + eta I_2 + eps f with v = (1, 0), T = 1.
NF_EPS = 1e-5
NF_ETA = 1e-7
NF_K = 48
NF_K_F = 8
NF_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
NF_TV = (1, 0)
NF_ARGV = ["nf", "--family", "gevrey", "--alpha", "2", "--hamiltonian",
           "inputs/nf_hamiltonian.fts", "--v", "1,0", "--T", "1"]

# lab_cli: (name, argv, expected exit code).  brtest exp-sqrt diverges by
# design and exits 3 with DivergenceDiagnosed; `report` reads every manifest.
LAB_OPS = [
    ("weights", ["weights", "--family", "gevrey", "--alpha", "2",
                 "--sigma-grid", "1e-3:0.5"], 0),
    ("dioph", ["dioph", "--omega", "golden", "--q-max", "200"], 0),
    ("brtest_gevrey", ["brtest", "--family", "gevrey", "--alpha", "2",
                       "--omega", "golden", "--i-max", "30"], 0),
    ("brtest_expsqrt", ["brtest", "--family", "exp-sqrt", "--omega", "golden",
                        "--i-max", "30"], 3),
    ("nf_toy", ["nf", "--family", "gevrey", "--alpha", "2", "--k-max", "16",
                "--eps", "1e-4"], 0),
    ("diffuse", ["diffuse", "--omega", "golden", "--j", "5"], 0),
    ("ms_exact", ["ms", "--mode", "exact", "--q", "100", "--verify-drift"], 0),
    ("ms_pendulum", ["ms", "--mode", "pendulum", "--n", "3", "--j", "2",
                     "--s", "0.05"], 0),
    ("bessi", ["bessi", "--alpha", "4"], 0),
]
LAB_REPORT = "report"


def nf_perturbation(seed: int) -> dict:
    """The dense zero-mean perturbation f of nf_averaging as {(k, m): f_km}.

    For each action monomial I^m with |m| <= 2 and each mode 0 < |k|_inf <= 8
    (one of each pair +-k), f_km = (a + i b) e^{-|k|_1} / 2 with a, b
    standard normal from `default_rng(seed)`, and f_{-k,m} = conj(f_km),
    so f is real."""
    rng = np.random.default_rng(seed)
    f = {}
    r = range(-NF_K_F, NF_K_F + 1)
    for m in NF_MONOMIALS:
        for k in ((a, b) for a in r for b in r):
            if k <= (0, 0):
                continue
            c = complex(rng.normal(), rng.normal()) * math.exp(-abs(k[0]) - abs(k[1])) / 2
            f[(k, m)] = c
            f[((-k[0], -k[1]), m)] = c.conjugate()
    return f


def nf_hamiltonian(seed: int) -> dict:
    H = {key: NF_EPS * c for key, c in nf_perturbation(seed).items()}
    H[((0, 0), (1, 0))] = 1.0          # L_v with v = (1, 0)
    H[((0, 0), (0, 1))] = NF_ETA       # eta I_2
    return H


def lab_manifests() -> list:
    """The manifests of one lab_cli pass, in the order `report` reads them."""
    return [f"{PASS_DIR}/{name}/manifest.txt" for name, _, _ in LAB_OPS]


def operations(workload: str) -> list:
    """[(name, argv, expected exit)] of one pass.  Operation `name` writes
    its artifacts to PASS_DIR/name."""
    if workload == "kam_torus":
        ops = [("kam", KAM_ARGV, 0)]
    elif workload == "nf_averaging":
        ops = [("nf", NF_ARGV, 0)]
    elif workload == "lab_cli":
        ops = LAB_OPS + [(LAB_REPORT, ["report"] + lab_manifests(), 0)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(name, argv + ["--outdir", f"{PASS_DIR}/{name}"], code)
            for name, argv, code in ops]


def write_inputs(workload: str, seed: int, dest: Path):
    """Write the operation list, and nf_averaging's Hamiltonian, into dest."""
    dest.mkdir(parents=True, exist_ok=True)
    ops = operations(workload)
    (dest / "operations.json").write_text(json.dumps(ops, indent=1) + "\n")
    if workload == "nf_averaging":
        write_fts(dest / "nf_hamiltonian.fts", 2, NF_K, 2, nf_hamiltonian(seed))
