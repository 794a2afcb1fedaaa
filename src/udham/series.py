"""Truncated Fourier-Taylor series on T^n x (action ball) x (parameter ball).

The common currency of every normal-form computation: finite sums

    f(theta, I, w) = sum c_{k,m,w} e^{2 pi i k.theta} I^m w^w'

with |k|_inf <= K, |m| <= D_I, |w'| <= D_w.  The coefficients of the
present action/parameter monomials are stacked in one complex array, one
dense (2K+1)^n angle block per monomial, so angle convolutions run through
batched zero-padded FFTs (exact linear convolution up to roundoff, then
truncation back to K with a discarded-mass monitor).

Torus convention: T^n = R^n/Z^n with basis e^{2 pi i k.theta}; every
frequency-dependent constant is routed through rho(k) = 2 pi |k|_1.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

import numpy as np

from .weights import C_NORM, ParameterError, ScaleProfile

TWO_PI = 2.0 * math.pi
_META = ("n", "K", "D_I", "D_w", "n_w")


class DomainMismatch(ValueError):
    """Incompatible dimensions between two series."""


class ConsistencyError(ValueError):
    """A resonant mode survived where the construction requires none."""


def _flip(coef, n):
    """c_{-k} for every block of a stack: reverse the n trailing angle axes."""
    return coef[(Ellipsis,) + (slice(None, None, -1),) * n]


def _real_projection(coef, n):
    """Nearest real series: c_k -> (c_k + conj(c_{-k})) / 2 per block."""
    return 0.5 * (coef + np.conj(_flip(coef, n)))


@dataclass
class FTSeries:
    """Truncated real Fourier-Taylor series.

    A series carries its dimensions and truncation (n, K, D_I, n_w, D_w)
    and nothing else: every certificate takes its width s explicitly, and
    every series is real (c_{-k} = conj(c_k), up to round-off).
    Storage is stacked: ``keys`` is the tuple of the present (m, w)
    monomials and ``coef`` one complex array of shape
    (len(keys), (2K+1,)*n) whose row r is the angle block of keys[r], mode k
    at index k + K per axis.  Absent monomials are zero and cost nothing.
    Keys stay in the order in which they first appear; that order fixes
    the order in which ``product`` sums block pairs, and with it the
    round-off of every result.
    Only this module reads or writes ``coef``; other code reads ``blocks``,
    a read-only mapping, and builds series with ``zeros``, ``from_blocks``,
    ``from_samples``, ``from_text`` and the operations.

    Every operation returns a new series and leaves its operands unchanged.
    The mode setters ``set_mode``, ``add_cos`` and ``add_sin`` are the only
    in-place operations; they are for building a series.
    """

    n: int
    K: int
    D_I: int
    D_w: int
    n_w: int = 0
    keys: tuple = field(default=(), init=False)
    coef: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.coef = np.zeros((0,) + self._shape(), dtype=complex)

    # -- construction ---------------------------------------------------------

    @classmethod
    def zeros(cls, n, K, D_I=0, D_w=0, n_w=0):
        return cls(n=n, K=K, D_I=D_I, D_w=D_w, n_w=n_w)

    def _new(self, keys, coef, **meta) -> "FTSeries":
        """A series with self's metadata, overridden by meta, and these rows."""
        fields = {name: getattr(self, name) for name in _META}
        fields.update(meta)
        out = FTSeries(**fields)
        out.keys = tuple((tuple(int(x) for x in m), tuple(int(x) for x in w))
                         for m, w in keys)
        if coef is not None:
            out.coef = np.asarray(coef, dtype=complex).reshape((len(out.keys),) + out._shape())
        return out

    @classmethod
    def from_blocks(cls, like: "FTSeries", blocks: dict, **meta) -> "FTSeries":
        """Series with like's metadata (overridden by meta) and a copy of the
        given (m, w) -> (2K+1,)*n angle blocks."""
        out = like._new((), None, **meta)
        keys = list(blocks)
        coef = np.zeros((len(keys),) + out._shape(), dtype=complex)
        for r, key in enumerate(keys):
            coef[r] = blocks[key]
        return out._new(keys, coef)

    @classmethod
    def from_samples(cls, like: "FTSeries", samples: dict, N: int,
                     report: Optional[dict] = None, **meta) -> "FTSeries":
        """Series whose (m, w) blocks interpolate samples on the uniform grid.

        samples maps (m, w) to values at the N^n points theta = j/N (C
        order); their FFT coefficients are truncated to K (like's, or
        meta's) and projected onto real series.
        report, if given, receives the 'aliasing_mass' the truncation drops.
        """
        out = like._new((), None, **meta)
        n, K = out.n, out.K
        keys = list(samples)
        vals = np.zeros((len(keys),) + (N,) * n, dtype=complex)
        for r, key in enumerate(keys):
            vals[r] = np.reshape(samples[key], (N,) * n)
        coef = np.fft.fftn(vals, axes=out._angle_axes()) / N ** n
        idx = np.arange(-K, K + 1) % N
        kept = coef[np.ix_(np.arange(len(keys)), *([idx] * n))]
        if report is not None:
            report["aliasing_mass"] = float(np.sum(np.abs(coef)) - np.sum(np.abs(kept)))
        return out._new(keys, _real_projection(kept, n)).prune()

    def _shape(self):
        return (2 * self.K + 1,) * self.n

    def _angle_axes(self):
        return tuple(range(1, self.n + 1))

    def _key(self, m, w):
        m = tuple(m) if m is not None else (0,) * self.n
        w = tuple(w) if w is not None else (0,) * self.n_w
        return (m, w)

    @property
    def blocks(self) -> MappingProxyType:
        """Read-only mapping (m, w) -> angle block of the present monomials."""
        view = self.coef.view()
        view.flags.writeable = False
        return MappingProxyType(dict(zip(self.keys, view)))

    def block(self, m=None, w=None) -> np.ndarray:
        """Read-only angle block of I^m w^w (zeros when absent)."""
        key = self._key(m, w)
        if key in self.keys:
            return self.blocks[key]
        out = np.zeros(self._shape(), dtype=complex)
        out.flags.writeable = False
        return out

    def set_mode(self, k, value, m=None, w=None):
        key = self._key(m, w)
        if key not in self.keys:
            self.keys += (key,)
            self.coef = np.concatenate([self.coef, np.zeros((1,) + self._shape())])
        self.coef[(self.keys.index(key),) + tuple(np.asarray(k) + self.K)] = value
        return self

    def get_mode(self, k, m=None, w=None) -> complex:
        key = self._key(m, w)
        if key not in self.keys:
            return 0.0 + 0.0j
        return complex(self.coef[(self.keys.index(key),) + tuple(np.asarray(k) + self.K)])

    def add_cos(self, k, amp=1.0, m=None, w=None):
        """amp * cos(2 pi k.theta) * I^m w^w."""
        self.set_mode(k, self.get_mode(k, m, w) + amp / 2.0, m, w)
        self.set_mode([-x for x in k], self.get_mode([-x for x in k], m, w) + amp / 2.0, m, w)
        return self

    def add_sin(self, k, amp=1.0, m=None, w=None):
        self.set_mode(k, self.get_mode(k, m, w) + amp / 2.0j, m, w)
        self.set_mode([-x for x in k], self.get_mode([-x for x in k], m, w) - amp / 2.0j, m, w)
        return self

    def copy(self) -> "FTSeries":
        return self._new(self.keys, self.coef.copy())

    def prune(self, tol=0.0) -> "FTSeries":
        """Drop the monomials whose largest coefficient is at most tol."""
        keep = np.max(np.abs(self.coef), axis=self._angle_axes()) > tol
        return self._new([key for key, kp in zip(self.keys, keep) if kp], self.coef[keep])

    def prune_entries(self, floor: float) -> "FTSeries":
        """Zero every coefficient below the absolute floor (noise control)."""
        coef = np.where(np.abs(self.coef) < floor, 0.0, self.coef)
        return self._new(self.keys, coef).prune(0.0)

    def map_monomials(self, rule, **meta) -> "FTSeries":
        """Linear substitution on the monomials.

        Block (m, w) adds c times its angle block to monomial (m2, w2) for
        every ((m2, w2), c) that rule(m, w) yields; metadata as self's,
        overridden by meta.
        """
        entries = [(dst, r, c) for r, key in enumerate(self.keys)
                   for dst, c in rule(*key)]
        row = {dst: r for r, dst in enumerate(dict.fromkeys(dst for dst, _, _ in entries))}
        coef = np.zeros((len(row),) + self._shape(), dtype=complex)
        for dst, r, c in entries:
            coef[row[dst]] += c * self.coef[r]
        return self._new(list(row), coef, **meta)

    def rebanded(self, K: int) -> "FTSeries":
        """The same series at bandwidth K (zero-padded or truncated)."""
        kk = min(self.K, K)
        coef = np.zeros((len(self.keys),) + (2 * K + 1,) * self.n, dtype=complex)
        dst = (slice(None),) + (slice(K - kk, K + kk + 1),) * self.n
        src = (slice(None),) + (slice(self.K - kk, self.K + kk + 1),) * self.n
        coef[dst] = self.coef[src]
        return self._new(self.keys, coef, K=K)

    # -- basic queries ---------------------------------------------------------

    def _kgrid(self):
        r = np.arange(-self.K, self.K + 1)
        return np.stack(np.meshgrid(*([r] * self.n), indexing="ij"), axis=-1)

    def coeff_norm1(self) -> float:
        return float(np.sum(np.abs(self.coef)))

    def sup_coeff(self) -> float:
        return float(np.max(np.abs(self.coef), initial=0.0))

    def terms(self):
        """Yield (k, m, w, coeff) over nonzero coefficients, sorted."""
        order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        coef = self.coef[order]
        for idx in np.argwhere(np.abs(coef) > 0):
            m, w = self.keys[order[idx[0]]]
            k = tuple(int(i) - self.K for i in idx[1:])
            yield k, m, w, complex(coef[tuple(idx)])

    def check_reality(self) -> float:
        """Max |c_{-k} - conj(c_k)| over blocks."""
        return float(np.max(np.abs(self.coef - np.conj(_flip(self.coef, self.n))),
                            initial=0.0))

    # -- linear structure ------------------------------------------------------

    def _check_compat(self, other):
        if self.n != other.n or self.n_w != other.n_w:
            raise DomainMismatch("series dimensions differ")

    def __add__(self, other):
        return self._axpy(other, 1.0)

    def __sub__(self, other):
        return self._axpy(other, -1.0)

    def _axpy(self, other, a):
        self._check_compat(other)
        K = max(self.K, other.K)
        keys = list(self.keys) + [key for key in other.keys if key not in self.keys]
        row = {key: r for r, key in enumerate(keys)}
        coef = np.zeros((len(keys),) + (2 * K + 1,) * self.n, dtype=complex)
        for src, fac in ((self, 1.0), (other, a)):
            pad = K - src.K
            rows = np.array([row[key] for key in src.keys], dtype=np.intp)
            coef[(rows,) + (slice(pad, pad + 2 * src.K + 1),) * self.n] += fac * src.coef
        return self._new(keys, coef, K=K, D_I=max(self.D_I, other.D_I),
                         D_w=max(self.D_w, other.D_w))

    def __mul__(self, a):
        if isinstance(a, FTSeries):
            return product(self, a)
        return self._new(self.keys, self.coef * a)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    # -- derivatives -----------------------------------------------------------

    def _dtheta_mult(self, i) -> np.ndarray:
        """2 pi i k_i, shaped to broadcast against coef."""
        shape = [1] * (self.n + 1)
        shape[i + 1] = 2 * self.K + 1
        return (TWO_PI * 1j) * np.arange(-self.K, self.K + 1).reshape(shape)

    def dtheta(self, i) -> "FTSeries":
        """d/d theta_i; brings down 2 pi i k_i."""
        return self._new(self.keys, self.coef * self._dtheta_mult(i))

    def dI(self, i) -> "FTSeries":
        rows = [r for r, (m, _) in enumerate(self.keys) if m[i] >= 1]
        keys = [(m[:i] + (m[i] - 1,) + m[i + 1:], w) for m, w in (self.keys[r] for r in rows)]
        fac = np.array([self.keys[r][0][i] for r in rows], dtype=float)
        return self._new(keys, self.coef[rows] * fac.reshape((-1,) + (1,) * self.n),
                         D_I=max(self.D_I - 1, 0))

    def grad_theta(self):
        return [self.dtheta(i) for i in range(self.n)]

    def grad_I(self):
        return [self.dI(i) for i in range(self.n)]

    # -- evaluation --------------------------------------------------------------

    def eval_blocks(self, theta_pts) -> dict:
        """Evaluate each (m, w) angle block at arbitrary points (P, n)."""
        theta_pts = np.atleast_2d(np.asarray(theta_pts, dtype=float))
        zs = [np.exp(TWO_PI * 1j * theta_pts[:, i]) for i in range(self.n)]
        if not self.keys:
            return {}
        return dict(zip(self.keys, _horner(self.coef, zs, self.K)))

    def eval(self, theta_pts, I=None, w=None) -> np.ndarray:
        """f(theta, I, w) at points (P, n); w a fixed vector, I a fixed
        vector or one row per point (P, n); both default to 0."""
        I = np.zeros(self.n) if I is None else np.asarray(I, dtype=float)
        wv = np.zeros(self.n_w) if w is None else np.asarray(w, dtype=float)
        theta_pts = np.atleast_2d(np.asarray(theta_pts, dtype=float))
        vals = self.eval_blocks(theta_pts)
        out = np.zeros(len(theta_pts), dtype=complex)
        for (m, ww), v in vals.items():
            out += v * np.prod(I ** np.array(m), axis=-1) * \
                (np.prod(wv ** np.array(ww)) if self.n_w else 1.0)
        return out.real

    def grid_values(self, N=None) -> dict:
        """Per-block values on the uniform N^n grid via inverse FFT."""
        N = N if N is not None else 2 * self.K + 2
        if N < 2 * self.K + 1:
            raise ParameterError("grid too small for the stored bandwidth")
        return dict(zip(self.keys, self.derivative_grid((0,) * self.n, N)))

    def derivative_grid(self, alpha, N: int) -> np.ndarray:
        """d^alpha f / d theta^alpha of every block on the uniform N^n grid
        theta = j/N, stacked as (len(keys),) + (N,)*n, by one inverse FFT.

        Mode k lands on grid frequency k mod N; modes that coincide there
        are summed, so the values are exact samples for any N, also below
        the 2K + 1 that the stored bandwidth resolves.
        """
        coef = self.coef
        for i, a in enumerate(alpha):
            if a:
                coef = coef * self._dtheta_mult(i) ** a
        for axis in self._angle_axes():
            coef = _fold(coef, axis, self.K, N)
        return np.fft.ifftn(coef, axes=self._angle_axes()) * N ** self.n

    # -- serialization ------------------------------------------------------------

    def to_text(self) -> str:
        """`.fts` text: "ftseries 1", then the header "n K D_I n_w D_w
        1.0 1.0 0.0 1" (columns 6-9 are fixed; the last is the reality
        flag), then one "k m w re im" line per nonzero coefficient."""
        buf = io.StringIO()
        buf.write("ftseries 1\n")
        buf.write(f"{self.n} {self.K} {self.D_I} {self.n_w} {self.D_w} 1.0 1.0 0.0 1\n")
        for k, m, w, c in self.terms():
            fields = list(k) + list(m) + list(w) + [repr(c.real), repr(c.imag)]
            buf.write(" ".join(str(x) for x in fields) + "\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "FTSeries":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("ftseries"):
            raise ParameterError("not an ftseries file")
        hdr = lines[1].split() if len(lines) > 1 else []
        if len(hdr) != 9 or hdr[8] != "1":
            raise ParameterError("ftseries header must have nine fields and "
                                 "reality flag 1 (only real series are read)")
        n, K, D_I, n_w, D_w = (int(x) for x in hdr[:5])
        blocks = {}
        for ln in lines[2:]:
            parts = ln.split()
            k = tuple(int(x) + K for x in parts[:n])
            m = tuple(int(x) for x in parts[n:2 * n])
            w = tuple(int(x) for x in parts[2 * n:2 * n + n_w])
            re_, im_ = float(parts[-2]), float(parts[-1])
            block = blocks.setdefault((m, w), np.zeros((2 * K + 1,) * n, dtype=complex))
            block[k] = re_ + 1j * im_
        like = cls(n=n, K=K, D_I=D_I, D_w=D_w, n_w=n_w)
        return cls.from_blocks(like, blocks)


def _fold(coef, axis, K, N):
    """Move a mode axis (mode k at index k + K) onto N grid frequencies
    (k at index k mod N), summing the modes that coincide mod N."""
    L = coef.shape[axis]
    M = -(-L // N) * N
    pad = [(0, 0)] * coef.ndim
    pad[axis] = (0, M - L)
    chunks = np.pad(coef, pad).reshape(coef.shape[:axis] + (M // N, N)
                                       + coef.shape[axis + 1:])
    return np.roll(chunks.sum(axis=axis), -K, axis=axis)


def _vandermonde(z, L, K):
    """V[j, p] = z_p^(j - K) built by cumulative products."""
    V = np.empty((L, len(z)), dtype=complex)
    V[0] = z ** (-K)
    for j in range(1, L):
        V[j] = V[j - 1] * z
    return V


def _horner(arr, zs, K):
    """sum_k arr[k] prod z_i^(k_i - K), vectorized over the points axis.

    The trailing len(zs) axes of arr are angle axes, leading axes are batch.
    One contraction per angle axis, last to first: a BLAS matmul with the
    last axis's Vandermonde, then a weighted sum over each remaining axis.
    """
    L = arr.shape[-1]
    vals = (arr.reshape(-1, L) @ _vandermonde(zs[-1], L, K)).reshape(
        arr.shape[:-1] + (len(zs[-1]),))
    for z in reversed(zs[:-1]):
        vals = np.einsum("...kp,kp->...p", vals, _vandermonde(z, vals.shape[-2], K))
    return vals


def product(f: FTSeries, g: FTSeries, K_out: Optional[int] = None,
            D_I_out: Optional[int] = None,
            report: Optional[dict] = None) -> FTSeries:
    """Coefficient product; angle part by zero-padded FFT (exact), action
    and parameter parts by exponent convolution truncated to D_I/D_w.

    report, if given, receives 'discarded_fourier' and 'discarded_action'
    l1 masses; they are computed only then.
    """
    f._check_compat(g)
    K_full = f.K + g.K
    K_out = K_out if K_out is not None else max(f.K, g.K)
    D_I_out = D_I_out if D_I_out is not None else f.D_I + g.D_I
    D_w = max(f.D_w, g.D_w)
    if not f.keys or not g.keys:
        if report is not None:
            report["discarded_fourier"] = report["discarded_action"] = 0.0
        return f._new((), None, K=K_out, D_I=D_I_out, D_w=D_w)
    L = 2 * K_full + 1
    n = f.n
    axes = f._angle_axes()

    def spectrum(src):
        buf = np.zeros((len(src.keys),) + (L,) * n, dtype=complex)
        buf[(slice(None),) + (slice(0, 2 * src.K + 1),) * n] = src.coef
        return np.fft.fftn(buf, axes=axes)

    F, G = spectrum(f), spectrum(g)
    rows, pairs = {}, []
    disc_action = 0.0
    for i, (m1, w1) in enumerate(f.keys):
        for j, (m2, w2) in enumerate(g.keys):
            m = tuple(a + b for a, b in zip(m1, m2))
            w = tuple(a + b for a, b in zip(w1, w2))
            if sum(w) > D_w:
                continue  # jet truncation: silent by design
            if sum(m) > D_I_out:
                if report is not None:
                    disc_action += float(np.sum(np.abs(np.fft.ifftn(F[i] * G[j]))))
                continue
            pairs.append((rows.setdefault((m, w), len(rows)), i, j))
    full = np.zeros((len(rows),) + (L,) * n, dtype=complex)
    for r, i, j in pairs:
        full[r] += F[i] * G[j]
    # linear convolution: mode k sits at position k + K_full, no wrap
    full = np.fft.ifftn(full, axes=axes, out=full)
    disc_fourier = 0.0
    if K_out >= K_full:
        pad = K_out - K_full
        kept = np.zeros((len(rows),) + (2 * K_out + 1,) * n, dtype=complex)
        kept[(slice(None),) + (slice(pad, pad + L),) * n] = full
    else:
        kept = full[(slice(None),) + (slice(K_full - K_out, K_full + K_out + 1),) * n]
        if report is not None:
            disc_fourier = float(np.sum(np.abs(full)) - np.sum(np.abs(kept)))
    if report is not None:
        report["discarded_fourier"] = disc_fourier
        report["discarded_action"] = disc_action
    out = f._new(list(rows), _real_projection(kept, n), K=K_out, D_I=D_I_out, D_w=D_w)
    return out.prune()


def poisson_bracket(f: FTSeries, g: FTSeries, K_out: Optional[int] = None,
                    D_I_out: Optional[int] = None) -> FTSeries:
    """{f,g} = sum_i dtheta_i f dI_i g - dI_i f dtheta_i g."""
    f._check_compat(g)
    if f.D_I < 1 and g.D_I < 1:
        raise DomainMismatch("poisson bracket needs action dependence")
    K_out = K_out if K_out is not None else max(f.K, g.K)
    D_I_out = D_I_out if D_I_out is not None else max(f.D_I + g.D_I - 1, 0)
    out = None
    for i in range(f.n):
        t1 = product(f.dtheta(i), g.dI(i), K_out=K_out, D_I_out=D_I_out)
        t2 = product(f.dI(i), g.dtheta(i), K_out=K_out, D_I_out=D_I_out)
        term = t1 - t2
        out = term if out is None else out + term
    return out.prune(1e-300)


# ---------------------------------------------------------------------------
# resonant projections and the homological equation
# ---------------------------------------------------------------------------

def _resonance_mask(series: FTSeries, Tv) -> np.ndarray:
    Tv = np.asarray(Tv, dtype=np.int64)
    kg = series._kgrid()
    return kg @ Tv == 0


def average_periodic(f: FTSeries, pv) -> FTSeries:
    """[f]_v: keep modes with k.(Tv) = 0 (exact integer test); idempotent."""
    mask = _resonance_mask(f, pv.Tv)
    return f._new(f.keys, np.where(mask, f.coef, 0.0)).prune()


def average_zero_mode(f: FTSeries) -> FTSeries:
    """[f]: the theta-average."""
    c = (slice(None),) + (f.K,) * f.n
    center = f.coef[c]
    keep = center != 0
    coef = np.zeros((int(np.sum(keep)),) + f._shape(), dtype=complex)
    coef[c] = center[keep]
    return f._new([key for key, kp in zip(f.keys, keep) if kp], coef)


def solve_homological_periodic(f: FTSeries, pv, remove_average=True,
                               tol=1e-13) -> FTSeries:
    """Y with {Y, L_v} = f - [f]_v, solved modewise: Y_k = f_k/(2 pi i k.v).

    Equals the time-average formula T int_0^1 (f-[f]_v)(theta+tTv) t dt
    coefficientwise, via int_0^1 t e^{2 pi i m t} dt = 1/(2 pi i m).
    """
    mask = _resonance_mask(f, pv.Tv)
    kdotv = (f._kgrid() @ np.asarray(pv.Tv, dtype=float)) / pv.T
    if not remove_average and np.any(np.abs(f.coef[:, mask])
                                     > tol * max(f.sup_coeff(), 1.0)):
        raise ConsistencyError("resonant amplitude present; average first")
    coef = np.zeros_like(f.coef)
    coef[:, ~mask] = f.coef[:, ~mask] / ((TWO_PI * 1j) * kdotv[~mask])
    return f._new(f.keys, coef).prune()


def homological_integral_oracle(f: FTSeries, pv, n_t=160) -> FTSeries:
    """Direct quadrature of T int_0^1 (f - [f]_v)(theta + t T v) t dt.

    Independent check of the divisor formula: the time shift acts modewise
    as e^{2 pi i t k.Tv}, integrated by Gauss-Legendre (spectrally exact for
    the oscillation orders reachable at the stored truncation)."""
    g = f - average_periodic(f, pv)
    kTv = g._kgrid() @ np.asarray(pv.Tv, dtype=float)
    ts, wts = np.polynomial.legendre.leggauss(n_t)
    ts = 0.5 * (ts + 1.0)
    wts = 0.5 * wts
    phase = np.tensordot(np.exp(TWO_PI * 1j * np.multiply.outer(ts, kTv)),
                         wts * ts, axes=(0, 0))
    return g._new(g.keys, g.coef * (pv.T * phase)).prune()


# ---------------------------------------------------------------------------
# norm certificates
# ---------------------------------------------------------------------------

@dataclass
class NormCertificate:
    bound: float
    s: float
    n_terms: int
    worst_term: float
    constants: dict

    def __float__(self):
        return self.bound


def norm_upper(f: FTSeries, sp: ScaleProfile, s: float) -> NormCertificate:
    """Certified upper bound for |f|_{M,s} on the unit polydomain.

    Each monomial e^{2 pi i k.theta} I^m w^w has all mixed partials bounded
    by rho^|a| with rho = 2 pi |k|_1 + |m| + |w|, so its norm is at most
    c exp(Omega(4 s rho)) using (|a|+1)^2 <= 4^|a|.
    """
    nz = np.nonzero(np.abs(f.coef) > 0)
    degree = np.array([sum(m) + sum(w) for m, w in f.keys], dtype=float)
    k1 = np.sum(np.abs(np.stack(nz[1:]) - f.K), axis=0)
    rho = TWO_PI * k1 + degree[nz[0]]
    terms = C_NORM * np.abs(f.coef[nz]) * np.exp(sp.omega_values(4.0 * s * rho))
    # summed block by block, in key order, so the bound repeats bit for bit
    per_block = np.split(terms, np.cumsum(np.bincount(nz[0], minlength=len(f.keys)))[:-1])
    return NormCertificate(bound=sum(float(np.sum(t)) for t in per_block), s=s,
                           n_terms=len(terms),
                           worst_term=float(np.max(terms, initial=0.0)),
                           constants={"c": C_NORM, "freq_scale": "2pi|k|_1 + |m| + |w|"})


def decay_check(f: FTSeries, sp: ScaleProfile, s: float,
                bound: Optional[float] = None) -> dict:
    """Check |f_k| <= (bound/c) exp(-Omega(2 pi s |k|_inf)) modewise."""
    if bound is None:
        bound = norm_upper(f, sp, s).bound
    worst_margin = math.inf
    worst_k = None
    rows = []
    amps = np.max(np.abs(f.coef), axis=0, initial=0.0)
    for idx in np.argwhere(amps > 0):
        k = tuple(int(i) - f.K for i in idx)
        amp = float(amps[tuple(idx)])
        kinf = max(abs(x) for x in k) if k else 0
        allowed = (bound / C_NORM) * math.exp(-sp.omega_value(TWO_PI * s * kinf))
        margin = math.log(allowed + 1e-300) - math.log(amp)
        rows.append((k, amp, allowed, margin))
        if margin < worst_margin:
            worst_margin, worst_k = margin, k
    return {"rows": rows, "worst_margin": worst_margin, "worst_k": worst_k,
            "passed": worst_margin >= -1e-9}
