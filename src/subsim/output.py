"""Text number formatting shared by the file writers.

``CsvLog`` writes every run log (pose, DVL, ADCP, coupling, tile events):
a header line, then one comma-separated row per call, each ended by
``\n``. ``log_text`` is its one cell rule: a float as ``%.9g`` (nan
prints ``nan``), anything else as ``str``.

``write_rows`` formats each row of an array with one bytes ``%``
operation, so a row costs one Python call instead of one per value.
Values come from ``ndarray.tolist()``, i.e. as Python floats and ints,
and bytes ``%r`` is ``ascii()``, which for a float equals ``repr``: the
bytes are those of formatting every value on its own with the same rule.

``write_g17`` writes comma-separated ``%.17g`` rows, the same bytes as
Python's own formatting, but computes them with array arithmetic over
bounded chunks. A positive double x with decimal exponent E (10^E <= x <
10^(E+1)) has the 17 significant digits N = round(x * 10^(16 - E)). The
product is formed as a double-double: x times an exact (hi, lo) pair for
10^(16 - E), with the x * hi part split exactly (Dekker's TwoProduct).
For 0 <= 16 - E <= 22 the power is a double, the product is exact and
rounding is half-even as Python's. Otherwise the product is within
3 * 2^-49 of the true value (see ``_TIE_MARGIN``); a value whose fraction
lies within 2^-46 of one half is flagged, and Python formats it, like
nan, inf, subnormals and magnitudes outside [1e-282, 1e300).
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

# Array bytes converted and joined per write: about 680 colored OBJ vertices or 4
# rows of a 1024-bin A-plot. As Python objects and formatted text a
# chunk takes some 10x its array size, so it is bounded by bytes, not
# rows, to keep wide rows from holding a whole ping or grid at once.
CHUNK_BYTES = 32 * 1024

# Values per write_g17 chunk. Its buffers take about 200 bytes a value.
G17_CHUNK = 4096

# Decimal exponents on the array path: there neither x nor 10^(16 - E)
# overflows when split, and the lo part of the power stays a normal double.
_E_MIN, _E_MAX = -282, 299
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
# Error of the inexact product, in units of the last digit: the (hi, lo)
# power is within 2^-106 relative, x * lo is rounded once at < 32 and the
# correction sum once at < 32, each adding at most 2^-49 for a product < 2^57.
# A fraction within this margin of one half is left to Python.
_TIE_MARGIN = 2.0**-46

# Byte columns of one encoded value (W = 32, eight 4-byte words):
#   0 sign | 1-5 "0.000" prefix of fixed notation below 1 | 6 d0 | 7 "." |
#   8-23 d1..d16 | 24-28 "e+XX" or "e+XXX" | 29 separator | 30-31 unused.
# Every value writes the same columns; a per-row mask drops the bytes its
# form does not use, and one boolean compress of the matrix yields the text.
_W = 32
_REGION = slice(6, 24)  # d0, point, d1..d16; fixed notation moves the point
# Form classes: 0..20 fixed notation with X = class - 4, 21 scientific with a
# 2-digit exponent, 22 with a 3-digit one; each times 17 digit counts.
_N_CLASSES = 23 * 17


def _split(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


class _G17Tables:
    """Exact tables for write_g17, built from integers; see _g17_tables."""

    def __init__(self) -> None:
        exps = range(_E_MIN, _E_MAX + 2)  # a carry can print _E_MAX + 1
        thresholds, hi, lo = [], [], []
        for e in exps:
            # the least double >= 10^e, compared as exact integer ratios
            num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
            f = num / den  # int / int is correctly rounded
            fn, fd = f.as_integer_ratio()
            thresholds.append(f if fn * den >= num * fd else math.nextafter(f, math.inf))
            if e > _E_MAX:
                continue
            k = 16 - e
            num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
            h = num / den
            hn, hd = h.as_integer_ratio()
            hi.append(h)
            lo.append((num * hd - hn * den) / (den * hd))
        self.thresholds = np.array(thresholds)  # per E index, and one past _E_MAX
        self.pow_hi_hi, self.pow_hi_lo = _split(np.array(hi))  # Dekker halves of hi = 10^(16-E)
        self.pow_lo = np.array(lo)  # 10^(16-E) - hi, rounded

        groups = np.arange(10000)
        chars = np.stack([groups // 10**p % 10 for p in (3, 2, 1, 0)], axis=1) + ord("0")
        self.digits4 = np.ascontiguousarray(chars.astype(np.uint8)).view("<u4").ravel()
        tz = np.zeros(10000, dtype=np.int8)
        for p in (10, 100, 1000):
            tz += (groups % p == 0)
        # significant digits of a 4-digit group, -16 for 0000
        self.sig4 = np.where(groups == 0, -16, 4 - tz).astype(np.int8)
        self.lead = np.array([_word(b"00%d." % d) for d in range(10)], dtype="<u4")

        texts = [b"e%+03d" % x for x in exps]
        self.exp_word = np.array([_word(t[:4]) for t in texts], dtype="<u4")  # "e-XX", or "e-XX" of "e-XXX"
        self.exp_tail = np.array([_word(t[4:]) for t in texts], dtype="<u4")  # the third exponent digit
        # 17 * (form class) - 1 per printed exponent X; Python's %g rule is
        # fixed notation for -4 <= X < 17, else scientific
        self.form = np.array([17 * (x + 4 if -4 <= x < 17 else 21 if abs(x) < 100 else 22) - 1 for x in exps])

        masks = np.zeros((_N_CLASSES, _W), dtype=bool)
        r = np.arange(18)
        for c in range(23):
            for nd in range(1, 18):
                m = masks[c * 17 + nd - 1]
                m[6] = m[29] = True
                if c >= 21:  # scientific: d0 "." d1..d(nd-1) "e+XX"
                    region = (r == 0) | ((r == 1) & (nd > 1)) | ((r >= 2) & (r <= nd))
                    m[24:28] = True
                    m[28] = c == 22
                else:
                    x = c - 4
                    if x < 0:  # "0." then -x - 1 zeros then the digits
                        m[1:3] = True
                        m[3:6] = np.arange(3) < -x - 1
                        region = (r == 0) | ((r >= 2) & (r <= nd))
                    else:  # d0..dX, then "." and the rest if any remain
                        region = (r <= x) | ((r == x + 1) & (nd > x + 1)) | ((r >= x + 2) & (r <= nd))
                m[_REGION] = region
        self.masks = masks.view("<u8")  # (classes, 4): the byte mask of each form class
        # region order with the point after d_X, for fixed notation with X >= 1
        self.shift = np.array([[0, *range(2, x + 2), 1, *range(x + 2, 18)] for x in range(17)])


@functools.cache
def _g17_tables() -> _G17Tables:
    """The tables, built on first use (about 10 ms), not at import."""
    return _G17Tables()


def _round17(t: _G17Tables, x: np.ndarray):
    """(N, X, fallback) per value of x: the 17 significant digits of |x| as
    an integer N, the printed exponent X, and where Python must format x
    instead. Zeros have N = 0 and X = 0."""
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= t.thresholds[0]) & (ax < t.thresholds[-1])
    a = np.where(fast, ax, 1.0)
    # ei indexes the decimal exponent E: log10 is within one of it, and the
    # least doubles >= 10^E decide exactly.
    ei = np.floor(np.log10(a)).astype(np.intp)
    np.clip(ei - _E_MIN, 0, _E_MAX - _E_MIN, out=ei)
    ei -= a < t.thresholds[ei]
    ei += a >= t.thresholds[ei + 1]

    bhi, blo = t.pow_hi_hi[ei], t.pow_hi_lo[ei]
    p = a * (bhi + blo)
    ahi, alo = _split(a)
    frac = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo  # a * hi = p + frac exactly
    lo = t.pow_lo[ei]
    frac += a * lo
    r = np.rint(frac)  # p is an even integer (>= 2^53): half-even as a whole
    near_tie = (np.abs(frac - r) > 0.5 - _TIE_MARGIN) & (lo != 0.0)
    digits = p.astype(np.int64) + r.astype(np.int64)
    x_exp = ei + _E_MIN
    carry = digits == 10**17
    digits[carry] = 10**16
    x_exp += carry
    digits[zero] = 0
    x_exp[zero] = 0
    return digits, x_exp, ~(fast | zero) | near_tie


def _encode_g17(t: _G17Tables, x: np.ndarray, row_end: np.ndarray, out: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
    """The %.17g text of each value of x, followed by "\\n" where row_end, else ",".

    ``out`` (uint8) and ``mask`` (bool) are (len(x), _W) scratch buffers."""
    digits, x_exp, fallback = _round17(t, x)
    # The leading digit, then four 4-digit groups; nd counts digits up to the
    # last nonzero one, at least 1.
    top = digits // 10**8
    lead = top // 10**8
    words = out.view("<u4")
    words[:, 0] = _word(b"-0.0")
    words[:, 1] = t.lead[lead]
    nd = np.ones(len(x), dtype=np.intp)
    for word, half in ((2, top - lead * 10**8), (4, digits - top * 10**8)):
        high = half // 10**4
        for group in (high, half - high * 10**4):
            words[:, word] = t.digits4[group]
            np.maximum(nd, t.sig4[group] + (4 * word - 7), out=nd)
            word += 1
    xi = x_exp - _E_MIN
    words[:, 6] = t.exp_word[xi]
    words[:, 7] = t.exp_tail[xi]
    out[:, 29] = np.where(row_end, ord("\n"), ord(","))
    t.masks.take(t.form[xi] + nd, axis=0, out=mask.view("<u8"), mode="clip")
    mask[:, 0] = np.signbit(x)

    moved = np.flatnonzero((x_exp >= 1) & (x_exp < 17))
    if len(moved):
        region = out[moved, _REGION]
        out[moved, _REGION] = np.take_along_axis(region, t.shift[x_exp[moved]], axis=1)

    for i in np.flatnonzero(fallback).tolist():
        text = b"%.17g" % x[i]
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        mask[i, :29] = np.arange(29) < len(text)  # at most 24 bytes
    return out[mask]


def write_g17(fh, rows) -> None:
    """Write each row of the 2-D float array ``rows`` to the binary file ``fh`` as
    ``b",".join(b"%.17g" % v for v in row) + b"\\n"``, byte for byte."""
    rows = np.asarray(rows, dtype=np.float64)
    n_rows, n_cols = rows.shape
    values = rows.reshape(-1)
    if not values.size:
        fh.write(b"\n" * n_rows)
        return
    tables = _g17_tables()
    size = min(G17_CHUNK, len(values))
    out, mask = np.empty((size, _W), dtype=np.uint8), np.empty((size, _W), dtype=bool)
    for start in range(0, len(values), size):
        chunk = values[start:start + size]
        n = len(chunk)
        row_end = np.arange(start + 1, start + n + 1) % n_cols == 0
        fh.write(_encode_g17(tables, chunk, row_end, out[:n], mask[:n]))


def log_text(value) -> str:
    """One run-log cell: a float as ``%.9g``, anything else as ``str``."""
    return "%.9g" % value if isinstance(value, float) else str(value)


class CsvLog:
    """A run log file, written row by row; closes as a context manager."""

    def __init__(self, path: Path, header, preamble: str | None = None):
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "wb")
        if preamble is not None:
            self._fh.write(preamble.encode("ascii") + b"\n")
        self.row(header)

    def row(self, cells) -> None:
        self._fh.write(",".join([log_text(c) for c in cells]).encode("ascii") + b"\n")

    def __enter__(self) -> CsvLog:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


def write_rows(fh, fmt: bytes, rows: np.ndarray) -> None:
    """Write ``fmt % tuple(row)`` for each row of ``rows`` to the binary file ``fh``.

    ``rows`` is a 2-D array, or a record array for rows that mix floats
    and ints (its ``tolist()`` yields tuples).
    """
    step = max(1, CHUNK_BYTES // max(1, rows[:1].nbytes))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step].tolist()
        fh.write(b"".join([fmt % tuple(row) for row in chunk]))
