"""Readers and writers for udham's artifacts, independent of udham.

The oracles read `.fts` series, CSV tables and `manifest.txt` files through
this module, never through `udham.series.FTSeries.from_text`, so a fault in
the program's own serializer cannot hide a fault in what it serialized.
Numbers are accepted both as plain reprs (`1.0`) and as numpy 2 scalar reprs
(`np.float64(1.0)`), which the program writes today.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

_NP_SCALAR = re.compile(r"np\.(?:float|int|uint|complex|bool_?)\w*\((.*)\)$")


def parse_number(text: str):
    """A float (or int, or bool) from a plain or numpy-scalar repr."""
    t = text.strip()
    m = _NP_SCALAR.match(t)
    if m:
        t = m.group(1).strip()
    if t in ("True", "False"):
        return t == "True"
    try:
        return int(t)
    except ValueError:
        return float(t)


def _split_list(body: str):
    return [x for x in (p.strip() for p in body.split(",")) if x]


def parse_value(text: str):
    """A manifest value: a number, a bool, a flat list of numbers, or text."""
    t = text.strip()
    if t.startswith("[") and t.endswith("]"):
        try:
            return [parse_number(x) for x in _split_list(t[1:-1])]
        except ValueError:
            return t
    try:
        return parse_number(t)
    except ValueError:
        return t


def read_manifest(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            out[key] = parse_value(val)
    return out


def read_csv(path):
    """(header, rows) with every cell parsed as a number where it is one."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    parsed = []
    for row in body:
        cells = []
        for cell in row:
            try:
                cells.append(parse_number(cell))
            except ValueError:
                cells.append(cell)
        parsed.append(cells)
    return header, parsed


def csv_column(path, name) -> np.ndarray:
    header, rows = read_csv(path)
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


class Series:
    """A truncated Fourier-Taylor series read from `.fts` text.

    `blocks` maps (m, w) exponent tuples to dense complex arrays of shape
    (2K+1,)*n with mode k at index k + K, the layout of the format."""

    def __init__(self, n, K, D_I, n_w, D_w, blocks):
        self.n, self.K, self.D_I, self.n_w, self.D_w = n, K, D_I, n_w, D_w
        self.blocks = blocks

    def block(self, m, w=None) -> np.ndarray:
        key = (tuple(m), tuple(w) if w is not None else (0,) * self.n_w)
        if key not in self.blocks:
            self.blocks[key] = np.zeros((2 * self.K + 1,) * self.n, dtype=complex)
        return self.blocks[key]


def read_fts(path) -> Series:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("ftseries"):
        raise ValueError(f"{path}: not an ftseries file")
    hdr = lines[1].split()
    n, K, D_I, n_w, D_w = (int(x) for x in hdr[:5])
    out = Series(n, K, D_I, n_w, D_w, {})
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 2 * n + n_w + 2:
            raise ValueError(f"{path}: malformed line {ln!r}")
        k = [int(x) for x in parts[:n]]
        m = tuple(int(x) for x in parts[n:2 * n])
        w = tuple(int(x) for x in parts[2 * n:2 * n + n_w])
        if max(abs(x) for x in k) > K:
            raise ValueError(f"{path}: mode {k} beyond K={K}")
        c = float(parse_number(parts[-2])) + 1j * float(parse_number(parts[-1]))
        out.block(m, w)[tuple(x + K for x in k)] += c
    return out


def write_fts(path, n, K, D_I, terms):
    """Write a real series (n_w = 0) from {(k, m): coefficient} in `.fts` form."""
    lines = ["ftseries 1", f"{n} {K} {D_I} 0 0 1.0 1.0 0.0 1"]
    for (k, m), c in sorted(terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        c = complex(c)
        if c == 0:
            continue
        fields = list(k) + list(m) + [repr(c.real), repr(c.imag)]
        lines.append(" ".join(str(x) for x in fields))
    Path(path).write_text("\n".join(lines) + "\n")
