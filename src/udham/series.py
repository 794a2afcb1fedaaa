"""Truncated Fourier-Taylor series on T^n x (action ball) x (parameter ball).

The common currency of every normal-form computation: finite sums

    f(theta, I, w) = sum c_{k,m,w} e^{2 pi i k.theta} I^m w^w'

with |k|_inf <= K, |m| <= D_I, |w'| <= D_w.  The coefficients of the
present action/parameter monomials are stacked in one complex array, one
angle window |k|_inf <= b per monomial, b <= K the series' occupied band
(the largest |k|_inf of a nonzero coefficient).  Storage and every angle
transform are sized by the modes a series holds, not by K, which stays in
the metadata as the truncation bound; each constructor cuts its stack to
the band.  A reduction whose pairwise rounding depends on the array's
layout (`coeff_norm1`, a product's reported 'pruned_mass') pads to the
(2K+1)^n blocks inside that reduction only, so every value is the one that
dense (2K+1)^n storage gives.  Products
and Poisson brackets are one spectral kernel, `_spectral_product`: each
operand's window and its theta derivatives go to real grid values (action
derivatives only reweight rows), the signed pointwise products are summed
per output monomial, and one real FFT returns the result.  Its length is
the least 5-smooth >= b_f + b_g + min(K_out, b_f + b_g) + 1, where the kept
modes are exact up to round-off (Orszag's 3/2 rule), or >= 2(b_f + b_g) + 1
for a product asked for a report, whose discarded masses must be true l1
masses.  Every kept entry below the summed a-priori error bound
u log2(Lf^n) sum_terms |f_t|_1 |g_t|_1 is zeroed.  Uniform
grid values come only from `derivative_grid` (one real inverse FFT, on a
grid where no mode folds), samples go back only through `from_samples`
(one real FFT, kept modes rebuilt as in `product`), and scattered points
through `eval_blocks`.

Transforms are pruned (Frigo-Johnson, Proc. IEEE 93, 2005): each
multi-dimensional real FFT runs as numpy's own sequence of 1-D passes
(`_grid_values`, `_half_spectrum`), and the complex passes run only over
the lines that hold modes, so every value is computed by the same
floating-point operations as `irfftn`/`rfftn` of the whole half spectrum.
`from_samples` alone keeps a full `rfftn`: its floor and its
`aliasing_mass` need the l1 of the whole spectrum.

The spectral kernel keeps its intermediate arrays in private scratch
buffers (`_scratch`), one per use: the placed window of each angle axis,
which its `ifft` overwrites in place (also for `derivative_grid`), each
operand's stack of grid values, filled by `irfft(..., out=)`, and the
accumulator.  Every later bracket and product reuses them, so no call
faults in fresh pages for them.  A buffer keeps the size of the largest
call so far, the kernel is not re-entrant (udham runs single-threaded),
and no array in a buffer leaves the function that fills it: every series
and grid returned is a fresh array.

Torus convention: T^n = R^n/Z^n with basis e^{2 pi i k.theta}; every
frequency-dependent constant is routed through rho(k) = 2 pi |k|_1.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Optional

import numpy as np

from .errors import DomainMismatch, HorizonError, ParameterError
from .weights import C_NORM, ScaleProfile

TWO_PI = 2.0 * math.pi
_META = ("n", "K", "D_I", "D_w", "n_w")


def _flip(coef, n):
    """c_{-k} for every block of a stack: reverse the n trailing angle axes."""
    return coef[(Ellipsis,) + (slice(None, None, -1),) * n]


def _side(b: int) -> int:
    """Indices per angle axis of the window |k|_inf <= b: none when b < 0."""
    return max(2 * b + 1, 0)


def _inset(b: int, B: int, n: int) -> tuple:
    """The window |k|_inf <= b on the n angle axes of a window of B >= b."""
    return (slice(B - b, B + b + 1),) * n


def _band_of(a) -> int:
    """Largest |k|_inf of a nonzero entry of a stack of centred windows
    (mode k at index k + B per angle axis), -1 when there is none.  The
    faces |k_i| = B are read first: one nonzero there gives B."""
    B = (a.shape[-1] - 1) // 2
    if B >= 0 and any(np.any(a[(slice(None),) * axis + (end,)])
                      for axis in range(1, a.ndim) for end in (0, -1)):
        return B
    occupied = np.argwhere(np.any(a, axis=0))
    return int(np.max(np.abs(occupied - B), initial=-1))


def _pad(coef, B: int, n: int) -> np.ndarray:
    """A stack of windows zero-padded to the window |k|_inf <= B >= their band."""
    out = np.zeros(coef.shape[:1] + (_side(B),) * n, dtype=coef.dtype)
    out[(slice(None),) + _inset((coef.shape[-1] - 1) // 2, B, n)] = coef
    return out


@dataclass
class FTSeries:
    """Truncated real Fourier-Taylor series.

    A series carries its dimensions and truncation (n, K, D_I, n_w, D_w)
    and nothing else: every certificate takes its width s explicitly, and
    every series is real (c_{-k} = conj(c_k), up to round-off).
    Storage is stacked and band-sized: ``keys`` is the tuple of the present
    (m, w) monomials and ``coef`` one complex array of shape
    (len(keys), (2b+1,)*n), b <= K the occupied band (the largest |k|_inf
    of a nonzero coefficient of any block; b = -1 and angle axes of length
    0 when there is none), whose row r is the window |k|_inf <= b of the
    angle block of keys[r], mode k at index k + b per axis.  Every
    constructor cuts its stack to that band, so no zero beyond it is stored
    and K stays only as the truncation bound.  Absent monomials are zero and
    cost nothing.  Keys stay in the order in which they first appear; that
    order fixes the order in which products and brackets sum block pairs,
    and with it the round-off of every result.
    Only this module reads or writes ``coef``; other code reads ``blocks``,
    a read-only mapping to the blocks zero-padded to (2K+1)^n, and builds
    series with ``zeros``, ``from_blocks``, ``from_samples``, ``from_text``
    and the operations.

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
        self.coef = np.zeros((0,) * (self.n + 1), dtype=complex)

    # -- construction ---------------------------------------------------------

    @classmethod
    def zeros(cls, n, K, D_I=0, D_w=0, n_w=0):
        return cls(n=n, K=K, D_I=D_I, D_w=D_w, n_w=n_w)

    def _new(self, keys, coef, band=None, **meta) -> "FTSeries":
        """A series with self's metadata, overridden by meta, and these rows:
        a stack of centred windows, cut to its occupied band (given as band,
        or found here)."""
        fields = {name: getattr(self, name) for name in _META}
        fields.update(meta)
        out = FTSeries(**fields)
        out.keys = tuple((tuple(int(x) for x in m), tuple(int(x) for x in w))
                         for m, w in keys)
        if coef is not None:
            coef = np.asarray(coef, dtype=complex)
            b = _band_of(coef) if band is None else band
            B = (coef.shape[-1] - 1) // 2
            out.coef = coef if b == B else coef[(slice(None),) + _inset(b, B, out.n)].copy()
        return out

    @classmethod
    def from_blocks(cls, like: "FTSeries", blocks: dict, **meta) -> "FTSeries":
        """Series with like's metadata (overridden by meta) and a copy of the
        given (m, w) -> (2K+1,)*n angle blocks."""
        out = like._new((), None, **meta)
        keys = list(blocks)
        coef = np.zeros((len(keys),) + (2 * out.K + 1,) * out.n, dtype=complex)
        for r, key in enumerate(keys):
            coef[r] = blocks[key]
        return out._new(keys, coef)

    @classmethod
    def from_samples(cls, like: "FTSeries", keys: list, samples: np.ndarray, N: int,
                     report: Optional[dict] = None, **meta) -> "FTSeries":
        """Series whose (m, w) blocks interpolate samples on the uniform grid.

        samples is a real stack, row r the values of keys[r] at the N^n
        points theta = j/N (C order, flat or shaped (N,)*n), N >= 2K + 1
        for like's K (or meta's); a contiguous stack is transformed where it
        is, with no copy.  One real FFT transforms it; the modes |k|_inf <= K are rebuilt
        from the half spectrum as in `product` (`_half_modes`) and zeroed
        below the FFT's a-priori error bound u log2(N^n) |c|_1, c the row's
        full spectrum (half-spectrum columns 0 < k_last < N/2 count twice).
        report, if given, receives the 'aliasing_mass' the truncation drops,
        the largest 'roundoff_floor' and the 'pruned_mass' it zeroes.
        """
        out = like._new((), None, **meta)
        n, K = out.n, out.K
        if N < 2 * K + 1:
            raise ParameterError("grid too small for the kept bandwidth")
        H = np.fft.rfftn(np.reshape(samples, (len(keys),) + (N,) * n), axes=out._angle_axes())
        H /= N ** n
        col = np.arange(N // 2 + 1)
        l1 = np.sum(np.abs(H) * np.where((col == 0) | (2 * col == N), 1.0, 2.0),
                    axis=out._angle_axes(), keepdims=True)
        H = H[..., :K + 1]
        for axis in range(1, n):
            H = _centre(H, axis, K)
        kept = _half_modes(H, n, K)
        floor = np.finfo(float).eps * n * math.log2(N) * l1
        low = np.abs(kept) < floor
        if report is not None:
            report.update(aliasing_mass=float(np.sum(l1) - np.sum(np.abs(kept))),
                          roundoff_floor=float(np.max(floor, initial=0.0)),
                          pruned_mass=float(np.sum(np.abs(kept[low]))))
        kept[low] = 0.0
        return out._new(keys, kept).prune()

    def _angle_axes(self):
        return tuple(range(1, self.n + 1))

    def _key(self, m, w):
        m = tuple(m) if m is not None else (0,) * self.n
        w = tuple(w) if w is not None else (0,) * self.n_w
        return (m, w)

    @property
    def blocks(self) -> Mapping:
        """Read-only mapping (m, w) -> angle block of the present monomials,
        each a fresh (2K+1,)*n copy (mode k at index k + K) padded from the
        stored window when it is read."""
        return _Blocks(self)

    def set_mode(self, k, value, m=None, w=None):
        key = self._key(m, w)
        k = np.asarray(k)
        kinf = int(np.max(np.abs(k), initial=0))
        if kinf > self.K:
            raise ParameterError(f"mode {tuple(k.tolist())} beyond the truncation K = {self.K}")
        keys = self.keys + (() if key in self.keys else (key,))
        B = max(self._band(), kinf)
        coef = _pad(self.coef, B, self.n)
        if len(keys) > len(self.keys):
            coef = np.concatenate([coef, np.zeros((1,) + coef.shape[1:], dtype=complex)])
        coef[(keys.index(key),) + tuple(k + B)] = value
        self.keys, self.coef = keys, self._new(keys, coef).coef
        return self

    def get_mode(self, k, m=None, w=None) -> complex:
        key, b = self._key(m, w), self._band()
        if key not in self.keys or np.max(np.abs(k), initial=0) > b:
            return 0.0 + 0.0j
        return complex(self.coef[(self.keys.index(key),) + tuple(np.asarray(k) + b)])

    def add_cos(self, k, amp=1.0, m=None, w=None):
        """amp * cos(2 pi k.theta) * I^m w^w."""
        self.set_mode(k, self.get_mode(k, m, w) + amp / 2.0, m, w)
        self.set_mode([-x for x in k], self.get_mode([-x for x in k], m, w) + amp / 2.0, m, w)
        return self

    def add_sin(self, k, amp=1.0, m=None, w=None):
        self.set_mode(k, self.get_mode(k, m, w) + amp / 2.0j, m, w)
        self.set_mode([-x for x in k], self.get_mode([-x for x in k], m, w) - amp / 2.0j, m, w)
        return self

    def prune(self) -> "FTSeries":
        """Drop the all-zero monomials; a non-finite coefficient raises ParameterError."""
        mag = np.abs(self.coef)
        peak = np.max(mag, axis=self._angle_axes(), initial=0.0)
        if not np.all(np.isfinite(peak)):
            raise ParameterError("series has a non-finite coefficient")
        keep = peak > 0.0
        b = _band_of(mag)
        coef = self.coef[(keep,) + _inset(b, self._band(), self.n)]
        return self._new([key for key, kp in zip(self.keys, keep) if kp], coef, band=b)

    def map_monomials(self, rule, **meta) -> "FTSeries":
        """Linear substitution on the monomials.

        Block (m, w) adds c times its angle block to monomial (m2, w2) for
        every ((m2, w2), c) that rule(m, w) yields; metadata as self's,
        overridden by meta.
        """
        entries = [(dst, r, c) for r, key in enumerate(self.keys)
                   for dst, c in rule(*key)]
        row = {dst: r for r, dst in enumerate(dict.fromkeys(dst for dst, _, _ in entries))}
        coef = np.zeros((len(row),) + self.coef.shape[1:], dtype=complex)
        for dst, r, c in entries:
            coef[row[dst]] += c * self.coef[r]
        return self._new(list(row), coef, **meta)

    def rebanded(self, K: int) -> "FTSeries":
        """The same series at truncation K: the modes |k|_inf > K dropped."""
        b = self._band()
        return self._new(self.keys, self.coef[(slice(None),) + _inset(min(b, K), b, self.n)]
                         .copy(), K=K)

    # -- basic queries ---------------------------------------------------------

    def _band(self) -> int:
        """Largest |k|_inf of a nonzero coefficient, -1 when there is none:
        the stored window's."""
        return (self.coef.shape[-1] - 1) // 2

    def _dwindow(self, alpha, rows=slice(None)) -> np.ndarray:
        """d^alpha / d theta^alpha of these rows of the stored windows."""
        win = self.coef[rows]
        for i, a in enumerate(alpha):
            if a:
                win = win * self._dtheta_mult(i) ** a
        return win

    def coeff_norm1(self) -> float:
        # summed over the (2K+1)^n blocks, whose layout fixes the pairwise
        # summation's rounding
        return float(np.sum(_pad(np.abs(self.coef), self.K, self.n)))

    def terms(self):
        """Yield (k, m, w, coeff) over nonzero coefficients, sorted."""
        b = self._band()
        for r in sorted(range(len(self.keys)), key=self.keys.__getitem__):
            (m, w), blk = self.keys[r], self.coef[r]
            idx = np.argwhere(np.abs(blk) > 0)
            for k, c in zip(idx.tolist(), blk[tuple(idx.T)].tolist()):
                yield tuple(i - b for i in k), m, w, c

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
        keys = list(self.keys) + [key for key in other.keys if key not in self.keys]
        row = {key: r for r, key in enumerate(keys)}
        B = max(self._band(), other._band())
        coef = np.zeros((len(keys),) + (_side(B),) * self.n, dtype=complex)
        coef[(slice(len(self.keys)),) + _inset(self._band(), B, self.n)] += self.coef
        for key, c in zip(other.keys, a * other.coef):
            coef[(row[key],) + _inset(other._band(), B, self.n)] += c
        return self._new(keys, coef, K=max(self.K, other.K), D_I=max(self.D_I, other.D_I),
                         D_w=max(self.D_w, other.D_w))

    def __mul__(self, a):
        return self._new(self.keys, self.coef * a)

    __rmul__ = __mul__

    # -- derivatives -----------------------------------------------------------

    def _dtheta_mult(self, i) -> np.ndarray:
        """2 pi i k_i, shaped to broadcast against coef."""
        b = self._band()
        shape = [1] * (self.n + 1)
        shape[i + 1] = -1
        return (TWO_PI * 1j) * np.arange(-b, b + 1).reshape(shape)

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

    # -- evaluation --------------------------------------------------------------

    def eval_blocks(self, theta_pts) -> dict:
        """Each (m, w) angle block at points (P, n), from the stored window."""
        theta_pts = np.atleast_2d(np.asarray(theta_pts, dtype=float))
        zs = [np.exp(TWO_PI * 1j * theta_pts[:, i]) for i in range(self.n)]
        b = max(self._band(), 0)
        return dict(zip(self.keys, _horner(_pad(self.coef, b, self.n), zs, b)))

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

    def derivative_grid(self, alpha, N: int, rows=slice(None)) -> np.ndarray:
        """d^alpha f / d theta^alpha of the blocks of these rows (all by
        default) on the uniform N^n grid theta = j/N, stacked as
        (rows,) + (N,)*n, by one real inverse FFT of the half spectrum
        (`_grid_values`: the complex passes run only over the columns and
        lines that hold modes).

        Only the stored window |k|_inf <= b is read, b = `_band()` over
        all rows, so a row's values do not depend on the rows asked for.  It is
        transformed on the least multiple qN >= 2b + 1 of N, where no mode
        folds, and every q-th sample is kept, so the values are exact
        samples for any N, also below 2b + 1.  The series' exact Hermitian
        symmetry makes the samples real.
        """
        b = self._band()
        win = self._dwindow(alpha, rows)
        q = max(-(-(2 * b + 1) // N), 1)
        # scaled after a backward transform: norm="forward" is as accurate,
        # but moves the README kam run's omega_star by about ten ulps
        vals = _grid_values(win, q * N, self.n)
        vals *= (q * N) ** self.n
        return vals[(slice(None),) + (slice(None, None, q),) * self.n]

    # -- serialization ------------------------------------------------------------

    def to_text(self) -> str:
        """`.fts` text: "ftseries 1", then the header "n K D_I n_w D_w
        1.0 1.0 0.0 1" (columns 6-9 are fixed; the last is the reality
        flag), then one "k m w re im" line per nonzero coefficient."""
        buf = io.StringIO()
        buf.write("ftseries 1\n")
        buf.write(f"{self.n} {self.K} {self.D_I} {self.n_w} {self.D_w} 1.0 1.0 0.0 1\n")
        for k, m, w, c in self.terms():
            buf.write(" ".join(map(str, k + m + w)) + f" {c.real!r} {c.imag!r}\n")
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
            block = blocks.get((m, w))
            if block is None:
                block = blocks[m, w] = np.zeros((2 * K + 1,) * n, dtype=complex)
            block[k] = re_ + 1j * im_
        like = cls(n=n, K=K, D_I=D_I, D_w=D_w, n_w=n_w)
        return cls.from_blocks(like, blocks)


class _Blocks(Mapping):
    """`FTSeries.blocks`: each stored window zero-padded to (2K+1,)*n, read-only."""

    def __init__(self, series: FTSeries):
        self._series = series

    def __len__(self):
        return len(self._series.keys)

    def __iter__(self):
        return iter(self._series.keys)

    def __getitem__(self, key):
        s = self._series
        if key not in s.keys:
            raise KeyError(key)
        r = s.keys.index(key)
        block = _pad(s.coef[r:r + 1], s.K, s.n)[0]
        block.flags.writeable = False
        return block


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


# The spectral kernel's scratch buffers, by use: flat arrays that keep the
# size of the largest request so far and back the arrays of every later one.
_SCRATCH = {}


def _scratch(use, shape, dtype=float) -> np.ndarray:
    """An uninitialised array of this shape backed by the scratch buffer of
    `use`, which it shares with every earlier array of that use: it must not
    leave the function that fills it, nor be read after the next request."""
    size = math.prod(shape)
    buf = _SCRATCH.get(use)
    if buf is None or buf.size < size:
        buf = _SCRATCH[use] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def _place(a, axis, L):
    """Axis `axis` of a stack holding modes -b..b at index k + b, placed at
    k mod L on an axis of length L >= 2b + 1, zeros elsewhere: two slice
    copies and one fill, in the scratch buffer of that axis.  The inverse
    of `_centre`."""
    b = (a.shape[axis] - 1) // 2
    head = (slice(None),) * axis
    out = _scratch(("place", axis), a.shape[:axis] + (L,) + a.shape[axis + 1:], complex)
    out[head + (slice(0, b + 1),)] = a[head + (slice(b, None),)]
    out[head + (slice(b + 1, L - b),)] = 0.0
    out[head + (slice(L - b, L),)] = a[head + (slice(0, b),)]
    return out


def _centre(H, axis, K):
    """Modes -K..K of an axis holding mode k at k mod its length L >= 2K + 1,
    moved to index k + K: two slice copies."""
    L = H.shape[axis]
    head = (slice(None),) * axis
    return np.concatenate([H[head + (slice(L - K, L),)], H[head + (slice(0, K + 1),)]],
                          axis=axis)


def _grid_values(win, L, n, norm=None, out=None):
    """Real values on the L^n grid, L >= 2b + 1, of a stack of Hermitian
    windows (mode k at index k + b per axis): `np.fft.irfftn` of their half
    spectrum, by its own 1-D passes in its order (`ifft` along angle axes
    1..n-1, in place on each axis's `_place` buffer, then `irfft` on the
    last), run only over the lines that hold modes: the columns k_last =
    0..b, and on each axis not yet transformed the 2b + 1 occupied indices.
    Every value is computed as by `irfftn`.  The values go to out, a fresh
    array when it is None."""
    b = (win.shape[-1] - 1) // 2
    if b < 0:                 # irfft of zero columns does not give zeros
        out = np.empty((len(win),) + (L,) * n) if out is None else out
        out[...] = 0.0
        return out
    vals = win[..., b:]
    for axis in range(1, n):
        vals = _place(vals, axis, L)
        np.fft.ifft(vals, axis=axis, norm=norm, out=vals)
    return np.fft.irfft(vals, n=L, axis=-1, norm=norm, out=out)


def _half_spectrum(vals, n, K):
    """Modes |k|_inf <= K of `np.fft.rfftn(vals, norm="forward")` over the
    n trailing axes of a stack of real L^n grids, L >= 2K + 1, by its own
    1-D passes in its order (`rfft` on the last axis, then `fft` along axes
    n-1..1), each later pass run only over the kept lines: the columns
    k_last = 0..K, and on each axis already transformed the modes |k| <= K.
    Leading axes hold mode k at index k + K, the last axis k_last = 0..K."""
    H = np.fft.rfft(vals, axis=-1, norm="forward")[..., :K + 1]
    for axis in range(n - 1, 0, -1):
        H = _centre(np.fft.fft(H, axis=axis, norm="forward"), axis, K)
    return H


def _smooth_length(L: int) -> int:
    """Least 5-smooth integer >= L (an FFT length with radices 2, 3, 5)."""
    while True:
        m = L
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return L
        L += 1


def _mirror(coef, n):
    """Complete a stack of real blocks from its entries with k_last >= 0, in
    place: c_k = conj(c_{-k}) for k_last < 0, recursively on the k_last = 0
    plane, and c_0 real, so the result is exactly Hermitian."""
    K = coef.shape[-1] // 2
    coef[..., :K] = np.conj(_flip(coef, n)[..., :K])
    if n > 1:
        _mirror(coef[..., K], n - 1)
    else:
        coef[..., K] = coef[..., K].real
    return coef


def _half_modes(H, n, K):
    """The modes |k|_inf <= K of every row of a half spectrum H (leading
    axes at index k + Kh, last axis k_last = 0..Kh, Kh >= K) as Hermitian
    (2K + 1)^n blocks."""
    Kh = H.shape[-1] - 1
    out = np.zeros((len(H),) + (2 * K + 1,) * n, dtype=complex)
    out[..., K:] = H[(slice(None),) + (slice(Kh - K, Kh + K + 1),) * (n - 1)
                     + (slice(0, K + 1),)]
    return _mirror(out, n)


def _lowered(keys, a):
    """(m_a, key with m_a lowered by one) per (m, w) key: the rows of
    d/dI_a and their factors; (1, key) when a is None."""
    if a is None:
        return [(1, key) for key in keys]
    return [(m[a], (m[:a] + (m[a] - 1,) + m[a + 1:], w)) for m, w in keys]


def _spectral_product(f: FTSeries, g: FTSeries, terms, K_out: int, D_I_out: int,
                      report: Optional[dict] = None) -> FTSeries:
    """sum of c * d_theta_tf d_I_af f * d_theta_tg d_I_ag g over the terms
    (c, (tf, af), (tg, ag)), axis None for no derivative: the one transform
    behind `product` (one term) and `poisson_bracket` (2n terms).

    Only the occupied window |k|_inf <= b of each operand is read.  Each
    theta derivative a term takes goes to real grid values by one pruned
    inverse transform (`_grid_values`) of the rows that some term reads;
    d_I_a needs none, it reweights the rows with m_a >= 1 and reads no
    other.  The signed pointwise products are summed per output monomial
    in term and key-pair order, and one pruned real FFT (`_half_spectrum`)
    returns the half spectrum of the kept modes (of all |k|_inf <= K_full
    with a report), from which they are rebuilt with c_{-k} = conj(c_k).
    The length Lf is the least 5-smooth >= K_full + min(K_out, K_full) + 1,
    K_full = b_f + b_g (Orszag's 3/2 rule: the kept modes are exact, only
    dropped ones fold),
    and >= 2 max(b_f, b_g) + 1, so that no operand mode folds; with a report
    it is >= 2 K_full + 1, so the discarded masses are true l1 masses.
    Every kept entry below the summed floor u log2(Lf^n) sum_terms
    |f_t|_1 |g_t|_1, f_t and g_t a term's two factors, is zeroed.
    """
    f._check_compat(g)
    D_w = max(f.D_w, g.D_w)
    b_f, b_g = f._band(), g._band()
    if min(b_f, b_g) < 0:
        if report is not None:
            report.update(discarded_fourier=0.0, discarded_action=0.0,
                          roundoff_floor=0.0, pruned_mass=0.0, transform_length=0)
        return f._new((), None, K=K_out, D_I=D_I_out, D_w=D_w)
    n, axes = f.n, f._angle_axes()
    K_full = b_f + b_g
    K_kept = min(K_out, K_full)
    Lf = _smooth_length(max(K_full + (K_full if report is not None else K_kept),
                            2 * max(b_f, b_g)) + 1)

    def grids(s, side):
        """For each theta axis t (None: no derivative) that the terms take
        on this side, the rows' l1 of d_theta_t s and its grid values on
        the rows that some such term reads (d_I_a reads those with m_a >= 1),
        by row index; the values of all t stacked in this side's slab."""
        reads = {}
        for t in dict.fromkeys(term[side][0] for term in terms):
            ags = [term[side][1] for term in terms if term[side][0] == t]
            reads[t] = [r for r, (m, _) in enumerate(s.keys)
                        if any(a is None or m[a] for a in ags)]
        slab = _scratch(("grids", side), (sum(map(len, reads.values())),) + (Lf,) * n)
        out, r0 = {}, 0
        for t, read in reads.items():
            win = s._dwindow([int(i == t) for i in range(n)])
            vals = _grid_values(win[read], Lf, n, norm="forward",
                                out=slab[r0:r0 + len(read)])
            out[t] = (dict(zip(read, vals)), np.sum(np.abs(win), axis=axes))
            r0 += len(read)
        return out

    F, G = grids(f, 1), grids(g, 2)
    rows, pairs, dropped = {}, [], []
    l1 = 0.0
    for c, (tf, af), (tg, ag) in terms:
        (Fv, Fl1), (Gv, Gl1) = F[tf], G[tg]
        lf, lg = _lowered(f.keys, af), _lowered(g.keys, ag)
        l1 += (sum(a * x for (a, _), x in zip(lf, Fl1))
               * sum(a * x for (a, _), x in zip(lg, Gl1)))
        for i, (a1, (m1, w1)) in enumerate(lf):
            for j, (a2, (m2, w2)) in enumerate(lg):
                if not a1 * a2:
                    continue
                m = tuple(x + y for x, y in zip(m1, m2))
                w = tuple(x + y for x, y in zip(w1, w2))
                if sum(w) > D_w:
                    continue  # jet truncation: silent by design
                if sum(m) <= D_I_out:
                    pairs.append((rows.setdefault((m, w), len(rows)), c * a1 * a2, Fv[i], Gv[j]))
                elif report is not None:
                    dropped.append((c * a1 * a2, Fv[i], Gv[j]))
    # a dropped pair gets a row of its own: its full l1 is the discarded action mass
    pairs += [(len(rows) + r, c, x, y) for r, (c, x, y) in enumerate(dropped)]
    acc = _scratch("acc", (len(rows) + len(dropped),) + (Lf,) * n)
    acc[...] = 0.0
    for r, c, x, y in pairs:
        acc[r] += (x if c == 1 else c * x) * y      # 1 * x is x: no copy
    H = _half_spectrum(acc, n, K_full if report is not None else K_kept)
    kept = _half_modes(H[:len(rows)], n, K_kept)
    floor = float(np.finfo(float).eps * n * math.log2(Lf)) * l1
    low = np.abs(kept) < floor
    if report is not None:
        full = np.sum(np.abs(_half_modes(H, n, K_full)), axis=axes)
        report["discarded_fourier"] = (float(np.sum(full[:len(rows)]) - np.sum(np.abs(kept)))
                                       if K_out < K_full else 0.0)
        report["discarded_action"] = float(np.sum(full[len(rows):]))
        report["roundoff_floor"] = floor
        # summed over the kept modes padded to K_out, whose layout fixes the
        # pairwise summation's rounding
        mag = np.abs(_pad(kept, K_out, n))
        report["pruned_mass"] = float(np.sum(mag[mag < floor]))
        report["transform_length"] = Lf
    kept[low] = 0.0
    return f._new(list(rows), kept, K=K_out, D_I=D_I_out, D_w=D_w).prune()


def product(f: FTSeries, g: FTSeries, K_out: Optional[int] = None,
            D_I_out: Optional[int] = None,
            report: Optional[dict] = None) -> FTSeries:
    """Coefficient product; angle part by zero-padded real FFT, action and
    parameter parts by exponent convolution truncated to D_I/D_w.

    The one-term case of `_spectral_product`: the angle convolution is
    sized by the operands' occupied bands b_f, b_g (`FTSeries._band`), not
    their stored K, on the least 5-smooth length Lf >= b_f + b_g +
    min(K_out, b_f + b_g) + 1 (and >= 2 max(b_f, b_g) + 1), where every
    kept mode is exact up to round-off (Orszag's 3/2 rule); with a report,
    Lf >= 2(b_f + b_g) + 1, where no mode wraps around, so that the
    discarded masses are true l1 masses.  Every entry below the transform's
    a-priori error bound u log2(Lf^n) |f|_1 |g|_1 (Higham, ch. 24) is
    zeroed, so the result keeps no entry below that floor, and it is
    exactly real.  An operand with no nonzero coefficient gives the empty
    series.  Both transforms are pruned: the inverse passes run only over
    the lines that hold operand modes, and after the last-axis `rfft` the
    forward passes only over the kept modes (all modes |k|_inf <= b_f + b_g
    with a report), each value as `irfftn`/`rfftn` would compute it.

    report, if given, receives 'discarded_fourier' and 'discarded_action'
    (l1 masses of the modes beyond K_out and of each dropped pair's full
    product; computed only then), 'roundoff_floor', 'pruned_mass' (l1 of
    the kept modes zeroed by the floor) and 'transform_length' (Lf, 0 when
    no transform runs).
    """
    K_out = K_out if K_out is not None else max(f.K, g.K)
    D_I_out = D_I_out if D_I_out is not None else f.D_I + g.D_I
    return _spectral_product(f, g, [(1, (None, None), (None, None))], K_out, D_I_out,
                             report)


def poisson_bracket(f: FTSeries, g: FTSeries, K_out: Optional[int] = None,
                    D_I_out: Optional[int] = None) -> FTSeries:
    """{f,g} = sum_i dtheta_i f dI_i g - dI_i f dtheta_i g.

    The 2n-term case of `_spectral_product`: 2(n + 1) inverse transforms
    (each operand and its n theta derivatives) and one forward transform,
    at the 3/2-rule length of `product`.  Every kept entry below
    u log2(Lf^n) sum_i (|dtheta_i f|_1 |dI_i g|_1 + |dI_i f|_1 |dtheta_i g|_1)
    is zeroed.
    """
    if f.D_I < 1 and g.D_I < 1:
        raise DomainMismatch("poisson bracket needs action dependence")
    K_out = K_out if K_out is not None else max(f.K, g.K)
    D_I_out = D_I_out if D_I_out is not None else max(f.D_I + g.D_I - 1, 0)
    terms = [term for i in range(f.n)
             for term in ((1, (i, None), (None, i)), (-1, (None, i), (i, None)))]
    return _spectral_product(f, g, terms, K_out, D_I_out)


# ---------------------------------------------------------------------------
# resonant projections and the homological equation
# ---------------------------------------------------------------------------

def _k_dot(f: FTSeries, Tv) -> np.ndarray:
    """k.Tv (exact integers) over f's stored window, from broadcast aranges."""
    b = f._band()
    k = np.arange(-b, b + 1)
    return sum(k.reshape((-1,) + (1,) * (f.n - 1 - i)) * int(t) for i, t in enumerate(Tv))


def average_periodic(f: FTSeries, pv) -> FTSeries:
    """[f]_v: keep modes with k.(Tv) = 0 (exact integer test); idempotent."""
    return f._new(f.keys, np.where(_k_dot(f, pv.Tv) == 0, f.coef, 0.0)).prune()


def average_zero_mode(f: FTSeries) -> FTSeries:
    """[f]: the theta-average."""
    b = f._band()
    if b < 0:
        return f._new((), None)
    center = f.coef[(slice(None),) + (b,) * f.n]
    keep = center != 0
    return f._new([key for key, kp in zip(f.keys, keep) if kp],
                  center[keep].reshape((-1,) + (1,) * f.n))


def solve_homological_periodic(f: FTSeries, pv) -> FTSeries:
    """Y with {Y, L_v} = f - [f]_v, solved modewise: Y_k = f_k/(2 pi i k.v)
    and Y_k = 0 where k.Tv = 0, so f need not be averaged first.

    Equals the time-average formula T int_0^1 (f-[f]_v)(theta+tTv) t dt
    coefficientwise, via int_0^1 t e^{2 pi i m t} dt = 1/(2 pi i m).
    """
    kTv = _k_dot(f, pv.Tv)
    coef = np.divide(f.coef, (TWO_PI * 1j) * (kTv / pv.T), out=np.zeros_like(f.coef),
                     where=kTv != 0)
    return f._new(f.keys, coef).prune()


# ---------------------------------------------------------------------------
# norm certificates
# ---------------------------------------------------------------------------

def sum_left_to_right(xs) -> float:
    """The floats xs summed left to right from 0.0, as the built-in sum()
    does up to Python 3.11; from 3.12 it compensates and can move the last
    bit, so every certificate sum goes through here."""
    total = 0.0
    for x in xs:
        total += x
    return total


@dataclass
class NormCertificate:
    bound: float
    s: float
    n_terms: int
    worst_term: float
    constants: dict


def norm_upper(f: FTSeries, sp: ScaleProfile, s: float) -> NormCertificate:
    """Certified upper bound for |f|_{M,s} on the unit polydomain.

    Each monomial e^{2 pi i k.theta} I^m w^w has all mixed partials bounded
    by rho^|a| with rho = 2 pi |k|_1 + |m| + |w|, so its norm is at most
    c exp(Omega(4 s rho)) using (|a|+1)^2 <= 4^|a|.
    """
    nz = np.nonzero(np.abs(f.coef) > 0)
    degree = np.array([sum(m) + sum(w) for m, w in f.keys], dtype=np.int64)
    k1 = np.sum(np.abs(np.stack(nz[1:]) - f._band()), axis=0)
    # exp(Omega) once per (degree, |k|_1) pair that occurs; past the horizon
    # the per-entry evaluation raises, so the error names the first entry
    span = f.n * f.K + 1
    code = degree[nz[0]] * span + k1
    present = np.zeros(int(np.max(code, initial=-1)) + 1, dtype=bool)
    present[code] = True
    pairs = np.flatnonzero(present)
    growth = np.empty(len(present))
    try:
        growth[pairs] = np.exp(sp.omega_values(4.0 * s * (TWO_PI * (pairs % span)
                                                          + pairs // span)))
    except HorizonError:
        sp.omega_values(4.0 * s * (TWO_PI * k1 + degree[nz[0]]))
        raise
    terms = C_NORM * np.abs(f.coef[nz]) * growth[code]
    # summed block by block, in key order, so the bound repeats bit for bit
    per_block = np.split(terms, np.cumsum(np.bincount(nz[0], minlength=len(f.keys)))[:-1])
    return NormCertificate(bound=sum_left_to_right(float(np.sum(t)) for t in per_block), s=s,
                           n_terms=len(terms),
                           worst_term=float(np.max(terms, initial=0.0)),
                           constants={"c": C_NORM, "freq_scale": "2pi|k|_1 + |m| + |w|"})


def decay_check(f: FTSeries, sp: ScaleProfile, s: float, bound: float) -> dict:
    """Check |f_k| <= (bound/c) exp(-Omega(2 pi s |k|_inf)) modewise."""
    worst_margin = math.inf
    worst_k = None
    rows = []
    amps = np.max(np.abs(f.coef), axis=0, initial=0.0)
    for idx in np.argwhere(amps > 0):
        k = tuple(int(i) - f._band() for i in idx)
        amp = float(amps[tuple(idx)])
        kinf = max(abs(x) for x in k) if k else 0
        allowed = (bound / C_NORM) * math.exp(-sp.omega_value(TWO_PI * s * kinf))
        margin = math.log(allowed + 1e-300) - math.log(amp)
        rows.append((k, amp, allowed, margin))
        if margin < worst_margin:
            worst_margin, worst_k = margin, k
    return {"rows": rows, "worst_margin": worst_margin, "worst_k": worst_k,
            "passed": worst_margin >= -1e-9}
