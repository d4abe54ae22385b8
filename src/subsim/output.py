"""Text number formatting shared by the file writers, and the one rule
for command outputs.

``staged`` is that rule, for ``run`` and ``tiles`` (a directory) and
``distort`` (one file): the output is written to a sibling of ``--out``
and renamed onto it when whole, and removed on any failure, Ctrl-C
included, with the parents it created, so ``--out`` is either the whole
output or absent (as it was). ``check_out`` is its refusal rule, which
a command applies before its expensive work.

``CsvLog`` writes every run log (pose, DVL, ADCP, coupling, tile events):
a header line, then comma-separated rows, one per ``row`` call and any
number in one write per ``rows`` call, each ended by ``\n``.
``log_text`` is its one cell rule: a float as ``%.9g`` (nan prints
``nan``), anything else as ``str``.

Two array encoders write rows of numbers with the same bytes as
formatting every value on its own in Python, but compute them with
array arithmetic over chunks of ``CHUNK_VALUES`` values: ``write_g17``
(``%.17g``: OBJ vertices, DEM grids and the A-plot CSV, all of which
read back bit for bit) and ``write_ints`` (``%d``, OBJ faces). Each call
allocates its temporaries once (``_Scratch``, 137 bytes a float value)
and reuses them for every chunk. An integer takes a slot of 4 * (g + 2)
bytes, g the 4-digit groups of the call's largest magnitude: 16 bytes
for OBJ face indices below 10^8, at most 28. The tables both encoders
read are built once per process, from exact integers and array
expressions (about 3 ms).

Digits of a float. A positive double x with decimal exponent E (10^E <=
x < 10^(E+1)) is scaled to V = x * 10^(16 - E), in [10^16, 10^17): its
17 significant digits before rounding. V is formed as a double-double:
x times an exact (hi, lo) pair for 10^(16 - E), with the x * hi part
split exactly (Dekker's TwoProduct). For 0 <= 16 - E <= 22 the power is
a double and V is exact. Otherwise V is within 3 * 2^-49 (see
``_TIE_MARGIN``). ``%.17g`` takes V rounded half-even, as Python does;
a value whose V lies within 2^-46 of a tie is flagged.

Python formats the flagged values, and nan, inf, subnormals and
magnitudes outside [1e-282, 1e300), on its own.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import shutil
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Values per encoded chunk: 16,384 was faster than 4,096 and 8,192 on the
# mesh export's rows (fewer fixed costs per value), and its scratch, 2.2 MB
# for floats, is still a small share of a run's peak memory.
CHUNK_VALUES = 16384

# Decimal exponents on the array path: there neither x nor 10^(16 - E)
# overflows when split, and the lo part of the power stays a normal double.
_E_MIN, _E_MAX = -282, 299
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
# Error of the inexact product, in units of the last digit: the (hi, lo)
# power is within 2^-106 relative, x * lo is rounded once at < 32 and the
# correction sum once at < 32, each adding at most 2^-49 for a product < 2^57.
# A fraction within this margin of one half is left to Python.
_TIE_MARGIN = 2.0**-46
# %.17g prints fixed notation for printed exponents -4 <= X < 17.
_FIXED_END = 17

# Byte columns of one encoded float (W = 32, eight 4-byte words):
#   0 sign | 1-5 "0.000" prefix of fixed notation below 1 | 6 d0 | 7 "." |
#   8-23 d1..d16 | 24-28 "e+XX" or "e+XXX" | 29-31 the tail.
# Every value writes the same columns; a per-row mask keeps the bytes its
# form uses, and one boolean index of the matrix yields the text. Fixed
# notation with X >= 1 first moves d1..dX one column down and the point
# after them. The tail of every layout is its last three columns: the
# separator, or "\n" at a row end, then the next row's prefix.
_W = 32
_REGION = slice(6, 24)  # d0, point, d1..d16
# Form classes: 0..20 fixed notation with X = class - 4, 21 scientific with a
# 2-digit exponent, 22 with a 3-digit one; each times 17 digit counts.
_N_CLASSES = 23 * 17
# Byte columns of one encoded integer in a slot of g 4-digit groups (one
# 4-byte word each): 3 sign | 4 .. 4g + 3 the digits | the last three the
# tail. A call's slot holds its largest magnitude; int64 needs 5 groups.
_INT_GROUPS = 5


def _int_width(groups: int) -> int:
    """Bytes of an integer slot of ``groups`` 4-digit groups: the sign word,
    the group words and the tail word."""
    return 4 * (groups + 2)


def _split(a, hi, lo):
    """Dekker's split of a into hi + lo, 26 bits each, written into hi and lo."""
    np.multiply(a, _SPLIT, out=hi)  # c
    np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)  # c - (c - a)
    np.subtract(a, hi, out=lo)
    return hi, lo


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _power(k: int) -> tuple[float, float]:
    """10^k rounded to a double, hi, and the rest 10^k - hi rounded, from
    exact integers (int / int and int to float are correctly rounded)."""
    if k >= 0:
        p = 10**k
        hi = float(p)
        return hi, float(p - int(hi))
    q = 10**-k
    hi = 1 / q
    hn, hd = hi.as_integer_ratio()
    return hi, (hd - hn * q) / (q * hd)


class _Tables:
    """Exact tables for the array encoders: one list of exact powers of
    ten, the rest array expressions; see _tables."""

    def __init__(self) -> None:
        # 10^k for k = 16 - _E_MAX .. _E_MAX + 1 (a carry can print _E_MAX + 1):
        # the rest's sign says on which side of 10^k its double lies.
        k0 = 16 - _E_MAX
        pow_hi, pow_lo = np.array([_power(k) for k in range(k0, _E_MAX + 2)]).T
        # per E index, and one past _E_MAX: the least double >= 10^E
        e_hi, e_lo = pow_hi[_E_MIN - k0:], pow_lo[_E_MIN - k0:]
        self.thresholds = np.where(e_lo > 0.0, np.nextafter(e_hi, np.inf), e_hi)
        # per biased binary exponent: the E index of 2^e, clipped to the tables
        binade = np.ldexp(1.0, np.clip(np.arange(2048) - 1023, -1022, 1023))
        e_index = np.searchsorted(self.thresholds, binade, side="right") - 1
        self.binade_e = np.clip(e_index, 0, _E_MAX - _E_MIN)
        # per E index: 10^(16-E) rounded, as its Dekker halves, and the rest
        # 10^(16-E) - hi, rounded; k = 16 - E runs down from 16 - _E_MIN to k0
        hi = pow_hi[_E_MAX - _E_MIN::-1].copy()
        self.pow_hi_hi, self.pow_hi_lo = _split(hi, *np.empty((2, len(hi))))
        self.pow_lo = pow_lo[_E_MAX - _E_MIN::-1].copy()

        groups = np.arange(10000)[:, None]
        chars = groups // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
        self.digits4 = chars.astype(np.uint8).view("<u4").ravel()
        # significant digits of a 4-digit group, -16 for 0000
        tz = np.count_nonzero(groups % np.array([10, 100, 1000]) == 0, axis=1)
        self.sig4 = np.where(groups[:, 0] == 0, -16, 4 - tz).astype(np.int8)
        self.lead = np.frombuffer(b"".join(b"00%d." % d for d in range(10)), dtype="<u4")  # columns 4-7
        # "e-XX", or "e-XX" of "e-XXX", then the third exponent digit, per printed exponent
        x = np.arange(_E_MIN, _E_MAX + 2)
        ax, wide = np.abs(x), np.abs(x) >= 100
        text = np.zeros((len(x), 8), dtype=np.uint8)
        text[:, 0] = ord("e")
        text[:, 1] = np.where(x < 0, ord("-"), ord("+"))
        three = ax[:, None] // [100, 10, 1] % 10 + ord("0")
        text[:, 2:5] = np.where(wide[:, None], three, three[:, [1, 2, 2]] * [1, 1, 0])  # or two digits
        self.exp_word, self.exp_tail = text.view("<u4").T.copy()
        # Moving the point after d_X, X = 0..16, on the 8-byte words 1 and 2
        # (columns 8-23) of a value: word k takes the next column's byte
        # where ``shift[k - 1]``, keeps its own where ``keep[k - 1]``, and
        # gains the point from ``point[k - 1]``. (Word 0 only takes d1 into
        # column 7, for every X >= 1.)
        col, moved = np.arange(8, 24), np.arange(17)[:, None]
        shift = np.where(col < 7 + moved, 0xFF, 0).astype(np.uint8)
        point = np.where((col == 7 + moved) & (moved >= 1), ord("."), 0).astype(np.uint8)
        keep = np.where((shift | point) > 0, 0, 0xFF).astype(np.uint8)
        self.shift, self.keep, self.point = (a.view("<u8").T.copy() for a in (shift, keep, point))  # (2, 17)

        # The text layout: per printed exponent X, 17 * (form class) - 1, and
        # per form class and digit count, the byte mask.
        self.form = 17 * np.where((x >= -4) & (x < _FIXED_END), x + 4, np.where(ax < 100, 21, 22)) - 1
        # region columns r = 0..17: d0, point, d1..d16, or in fixed notation
        # with X >= 1, once moved, d0..dX, point, d(X+1)..d16. Scientific
        # notation and X < 0 keep d0 before the point as X = 0 does, but
        # X < 0 takes its point from the "0." prefix.
        c, nd, col = np.arange(23)[:, None, None], np.arange(1, 18)[None, :, None], np.arange(_W)
        sci, below = c >= 21, c < 4
        fixed = np.where(sci | below, 0, c - 4)
        r = col - _REGION.start
        region = (r <= fixed) | ((r == fixed + 1) & (nd > fixed + 1) & ~below) | ((r >= fixed + 2) & (r <= nd))
        masks = region & (r >= 0) & (col < _REGION.stop)
        masks |= sci & (col >= 24) & (col < 28 + (c == 22))  # "e+XX" or "e+XXX"
        masks |= below & (col >= 1) & (col < 6 - c)  # "0." then -X - 1 zeros
        self.masks = masks.reshape(_N_CLASSES, _W).view("<u4")  # (classes, 8): the byte mask of each form class

        # integers: 10^k for k = 0..19, and per slot of g 4-digit groups
        # (width 4 * (g + 2), see _int_width) the byte mask of each digit count
        self.pow10 = np.array([10**k for k in range(20)], dtype=np.uint64)
        digits = np.arange(21)[:, None]
        col = np.arange(_int_width(_INT_GROUPS))
        tail = _int_width(_INT_GROUPS) - 4  # the first column past the digits
        full = (col >= tail - digits) & (col < tail)
        self.int_masks = {g: np.ascontiguousarray(full[:4 * g + 1, 4 * (_INT_GROUPS - g):]).view("<u4")
                          for g in range(1, _INT_GROUPS + 1)}


@functools.cache
def _tables() -> _Tables:
    """The tables, built on first use (about 3 ms), not at import."""
    return _Tables()


class _Scratch(NamedTuple):
    """The temporaries of one encoder call, allocated once and reused for
    every chunk, so that the encoders' cost does not depend on what the
    process freed before.

    ``out`` and ``mask`` are the (chunk, width) text and byte-mask
    matrices and ``gather`` a uint32 row; ``f``, ``i`` and ``b`` are
    stacks of float64, int64 and bool rows, one value per chunk position.
    An int64 work row lives in a float row that is free at the time, as
    its int64 view. Each function below unpacks the rows it uses by name
    and says which they are."""

    out: np.ndarray
    mask: np.ndarray
    gather: np.ndarray
    f: np.ndarray
    i: np.ndarray
    b: np.ndarray

    @classmethod
    def empty(cls, size: int, width: int) -> _Scratch:
        """The buffers for chunks of ``size`` values, carved from one block
        (8-byte rows first, so every row is aligned): 73 + 2 * ``width``
        bytes a value (137 for a float), in one allocation. glibc maps the
        first such block; freeing it raises glibc's mmap and trim thresholds
        above its size, so later calls take their block from the heap and
        reuse its pages."""
        layout = [("f", (6, size), np.float64), ("i", (2, size), np.int64),
                  ("out", (size, width), np.uint8), ("mask", (size, width), np.bool_),
                  ("gather", (size,), np.uint32), ("b", (5, size), np.bool_)]
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, shape, dtype in layout]
        block = np.empty(sum(sizes), dtype=np.uint8)
        parts, start = {}, 0
        for (name, shape, dtype), n in zip(layout, sizes):
            parts[name] = block[start:start + n].view(dtype).reshape(shape)
            start += n
        return cls(**parts)

    def head(self, n: int) -> _Scratch:
        """The same buffers, cut to a chunk of ``n`` values."""
        return _Scratch(self.out[:n], self.mask[:n], self.gather[:n],
                        *(rows[:, :n] for rows in (self.f, self.i, self.b)))


def _scaled(t: _Tables, x: np.ndarray, s: _Scratch):
    """V = |x| * 10^(16 - E) per value of x, as p + frac with p an integral
    double, held as an int64, and frac its remainder. Returns (ei, p, frac,
    inexact, slow, zero): ei indexes E in the tables, inexact marks a
    rounded V, slow the values Python must format (nan, inf, subnormals,
    magnitudes outside the tables) and zero the zeros; their V is that of
    1.0. Returns rows i, f[1] and b[:3], and works in f."""
    a, frac, bhi, blo, ahi, alo = s.f
    ei, p = s.i
    ei1 = alo.view(np.int64)  # until alo is split off a
    zero, fast, test = s.b[:3]
    np.abs(x, out=a)
    np.equal(a, 0.0, out=zero)
    np.greater_equal(a, t.thresholds[0], out=fast)
    fast &= np.less(a, t.thresholds[-1], out=test)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=test))
    # ei indexes the decimal exponent E. A binade [2^e, 2^(e+1)) holds at most
    # one power of ten, so E is that of 2^e or one more; the least doubles
    # >= 10^E decide exactly.
    np.right_shift(a.view(np.uint64), np.uint64(52), out=ei1.view(np.uint64))
    t.binade_e.take(ei1, out=ei, mode="clip")
    t.thresholds.take(np.add(ei, 1, out=ei1), out=frac, mode="clip")
    ei += np.greater_equal(a, frac, out=test)

    t.pow_hi_hi.take(ei, out=bhi, mode="clip")
    t.pow_hi_lo.take(ei, out=blo, mode="clip")
    np.add(bhi, blo, out=frac)
    frac *= a
    np.copyto(p, frac, casting="unsafe")  # an integer below 2^57: exact
    _split(a, ahi, alo)
    # a * hi = p + frac exactly: ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo;
    # each product is formed in a factor's row once that factor is spent.
    np.multiply(ahi, bhi, out=frac)
    frac -= p
    frac += np.multiply(ahi, blo, out=ahi)
    np.multiply(alo, blo, out=blo)
    frac += np.multiply(alo, bhi, out=bhi)
    frac += blo
    lo = t.pow_lo.take(ei, out=bhi, mode="clip")
    frac += np.multiply(a, lo, out=blo)
    inexact = np.not_equal(lo, 0.0, out=test)
    slow = np.logical_not(np.logical_or(fast, zero, out=fast), out=fast)
    return ei, p, frac, inexact, slow, zero


def _round17(t: _Tables, x: np.ndarray, s: _Scratch):
    """(N, X, fallback) per value of x: the 17 significant digits of |x| as
    an integer N, with a carry to 10^17 moved into the printed exponent X
    (zeros have N = 0 and X = 0), and where Python must format x instead.
    Returns rows i and b[1], and works in f[0] and f[2:4] (all of f is
    free after it) and b[3:5]."""
    ei, digits, frac, inexact, slow, zero = _scaled(t, x, s)
    r, dist = s.f[2:4]
    r_int = s.f[0].view(np.int64)
    near_tie, carry = s.b[3:5]
    np.rint(frac, out=r)  # p is an even integer (>= 2^53): half-even as a whole
    np.abs(np.subtract(frac, r, out=dist), out=dist)
    np.greater(dist, 0.5 - _TIE_MARGIN, out=near_tie)
    near_tie &= inexact
    np.copyto(r_int, r, casting="unsafe")
    digits += r_int
    np.equal(digits, 10**17, out=carry)
    np.copyto(digits, 10**16, where=carry)
    ei += carry
    ei += _E_MIN
    np.copyto(digits, 0, where=zero)
    np.copyto(ei, 0, where=zero)
    slow |= near_tie
    return digits, ei, slow


def _encode(t: _Tables, x: np.ndarray, s: _Scratch) -> None:
    """Write the %.17g text of each value of x into ``s.out``, with its
    byte mask in ``s.mask``; the tail bytes are left zero. Works in f (as
    six int64 rows, then as the moved words), ``gather`` and b[3:5]
    besides _round17's rows."""
    digits, x_exp, fallback = _round17(t, x, s)
    out, mask = s.out, s.mask
    top, lead, half, high, low, nd = s.f.view(np.int64)
    gather = s.gather
    inside, test = s.b[3:5]
    sig = test.view(np.int8)
    # The leading digit, then four 4-digit groups; nd counts digits up to the
    # last nonzero one, at least 1.
    np.floor_divide(digits, 10**8, out=top)
    np.floor_divide(top, 10**8, out=lead)
    words = out.view("<u4")
    words[:, 0] = _word(b"-0.0")
    words[:, 1] = t.lead.take(lead, out=gather, mode="clip")
    nd.fill(1)
    for word, upper, lower in ((2, lead, top), (4, top, digits)):
        np.subtract(lower, np.multiply(upper, 10**8, out=half), out=half)  # the 8 digits below upper
        np.floor_divide(half, 10**4, out=high)
        np.subtract(half, np.multiply(high, 10**4, out=low), out=low)
        for group in (high, low):
            words[:, word] = t.digits4.take(group, out=gather, mode="clip")
            np.maximum(nd, np.add(t.sig4.take(group, out=sig, mode="clip"), 4 * word - 7, out=sig), out=nd)
            word += 1
    xi = np.subtract(x_exp, _E_MIN, out=half)
    words[:, 6] = t.exp_word.take(xi, out=gather, mode="clip")
    words[:, 7] = t.exp_tail.take(xi, out=gather, mode="clip")
    form = t.form.take(xi, out=high, mode="clip")
    form += nd
    t.masks.take(form, axis=0, out=mask.view("<u4"), mode="clip")
    mask[:, 0] = np.signbit(x, out=test)  # not out=mask[:, 0]: numpy 2.4 writes wrong bits to a strided out

    # Fixed notation with X >= 1: d1..dX move one column down and the point
    # follows them; X = 0 leaves a value as it is. The point lands in word 1
    # (columns 8-15) for X <= 8, and word 2 then keeps its bytes.
    np.greater_equal(x_exp, 1, out=inside)
    inside &= np.less(x_exp, _FIXED_END, out=test)
    if inside.any():
        moved = np.multiply(x_exp, inside, out=digits)  # the digits are spent
        words_moved = 3 if moved.max() > 8 else 2
        w = out.view("<u8")
        old, shifted, part = (rows.view(np.uint64) for rows in (s.f[:words_moved + 1], s.f[4], s.f[5]))
        np.copyto(old, w[:, :words_moved + 1].T)  # the 8-byte words read, each contiguous
        for k in range(1, words_moved):
            np.right_shift(old[k], np.uint64(8), out=shifted)
            shifted |= np.left_shift(old[k + 1], np.uint64(56), out=part)
            shifted &= t.shift[k - 1].take(moved, out=part, mode="clip")
            shifted |= np.bitwise_and(old[k], t.keep[k - 1].take(moved, out=part, mode="clip"), out=part)
            shifted |= t.point[k - 1].take(moved, out=part, mode="clip")
            w[:, k] = shifted
        np.bitwise_and(old[0], np.uint64(2**56 - 1), out=shifted)  # column 7 takes d1
        shifted |= np.left_shift(old[1], np.uint64(56), out=part)
        np.copyto(w[:, 0], shifted, where=inside)

    index = np.flatnonzero(fallback)
    for i, value in zip(index.tolist(), x[index].tolist()):
        text = b"%.17g" % value
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        mask[i, :_W - 3] = np.arange(_W - 3) < len(text)  # at most 24 bytes


def _encode_ints(t: _Tables, groups: int, x: np.ndarray, s: _Scratch) -> None:
    """Write the %d text of each value of the int64 array x, at most
    ``groups`` 4-digit groups long, into ``s.out`` (``_int_width(groups)``
    columns); see _encode. Works in f[:3], ``gather`` and b[0]."""
    out, mask = s.out, s.mask
    rest, high, low = s.f[:3].view(np.uint64)
    gather, negative = s.gather, s.b[0]
    np.less(x, 0, out=negative)
    np.copyto(rest, x.view(np.uint64))
    np.negative(rest, out=rest, where=negative)  # |x| mod 2^64, exact for -2^63 too
    nd = np.searchsorted(t.pow10, rest, side="right")
    t.int_masks[groups].take(np.maximum(nd, 1, out=nd), axis=0, out=mask.view("<u4"), mode="clip")
    mask[:, 3] = negative
    words = out.view("<u4")
    words[:, 0] = _word(b"   -")
    words[:, groups + 1] = 0
    for word in range(groups, 0, -1):  # 4-digit groups from the last; the masks skip unset ones
        np.floor_divide(rest, 10**4, out=high)
        np.subtract(rest, np.multiply(high, 10**4, out=low), out=low)
        words[:, word] = t.digits4.take(low.view(np.int64), out=gather, mode="clip")
        if not high.any():
            break
        rest, high = high, rest


def _write(fh, rows, dtype, width: int, encode, sep: bytes, prefix: bytes) -> None:
    """Encode the 2-D array ``rows`` chunk by chunk into the binary file
    ``fh``: ``prefix``, the values joined by ``sep``, ``"\\n"``, per row.
    The tail is the last three of the ``width`` columns: bytes 1-3 of the
    last 4-byte word of each value, which ``encode`` leaves zero."""
    if len(sep) != 1 or len(prefix) > 2:
        raise ValueError("sep must be one byte and prefix at most two")
    rows = np.asarray(rows, dtype=dtype)
    n_rows, n_cols = rows.shape
    values = rows.reshape(-1)
    if not values.size:
        fh.write((prefix + b"\n") * n_rows)
        return
    size = min(CHUNK_VALUES, len(values))
    scratch = _Scratch.empty(size, width)
    # the last word's bytes and mask: within a row, then at a row end
    tail, end_tail = _word(b"\0" + sep), _word(b"\0\n" + prefix)
    tail_mask, end_mask = _word(b"\0\1"), _word(b"\0" + b"\1" * (1 + len(prefix)))
    fh.write(prefix)
    for start in range(0, len(values), size):
        chunk = values[start:start + size]
        n = len(chunk)
        s = scratch if n == size else scratch.head(n)
        encode(chunk, s)
        last, last_mask = s.out.view("<u4")[:, -1], s.mask.view("<u4")[:, -1]
        last |= tail
        last_mask |= tail_mask
        ends = slice(-(start + 1) % n_cols, None, n_cols)  # value start + j ends a row
        last[ends] ^= tail ^ end_tail
        last_mask[ends] |= end_mask
        if start + n == len(values):
            s.mask[-1, width - 2:] = False  # no prefix after the last row
        fh.write(s.out[s.mask])


def write_g17(fh, rows, sep: bytes, prefix: bytes = b"") -> None:
    """Write each row of the 2-D float array ``rows`` to the binary file ``fh`` as
    ``prefix + sep.join(b"%.17g" % v for v in row) + b"\\n"``, byte for byte.

    ``sep`` is one byte and ``prefix`` at most two."""
    _write(fh, rows, np.float64, _W, functools.partial(_encode, _tables()), sep, prefix)


def write_ints(fh, rows, sep: bytes, prefix: bytes = b"") -> None:
    """Write each row of the 2-D integer array ``rows`` to the binary file ``fh`` as
    ``prefix + sep.join(b"%d" % v for v in row) + b"\\n"``, byte for byte.

    ``sep`` is one byte and ``prefix`` at most two."""
    rows = np.asarray(rows, dtype=np.int64)
    top = max(int(rows.max()), -int(rows.min())) if rows.size else 0
    groups = max(1, -(-len(str(top)) // 4))  # the slot of the largest magnitude
    _write(fh, rows, np.int64, _int_width(groups), functools.partial(_encode_ints, _tables(), groups),
           sep, prefix)


def check_out(path, *, directory: bool) -> Path:
    """``path`` as ``staged`` writes it, a symlink resolved (rename(2)
    would replace the link). Raises FileExistsError or FileNotFoundError
    for an output ``staged`` refuses: the working directory, an existing
    ``path`` of the other kind, a non-empty directory (rename(2) replaces
    only a missing or empty one), and a file whose parent is missing. A
    command calls it before it reads its input, so a bad ``--out`` costs
    no work."""
    path = Path(path)
    if path.is_symlink():
        path = path.resolve()
    if path.resolve() == Path.cwd().resolve():
        raise FileExistsError(f"output {path} is the working directory")
    if path.exists() and path.is_dir() != directory:
        raise FileExistsError(f"output {path} exists and is not a {'directory' if directory else 'file'}")
    if directory and path.exists() and any(path.iterdir()):
        raise FileExistsError(f"output directory {path} is not empty")
    if not (directory or path.parent.is_dir()):
        raise FileNotFoundError(f"output directory {path.parent} does not exist")
    return path


@contextlib.contextmanager
def staged(path, *, directory: bool):
    """Yield the sibling ``.<name>.partial-<pid>`` of ``path`` (created if a
    ``directory``) to write one output to; rename it onto ``path`` when the
    block ends, or remove it on any exception, KeyboardInterrupt included.

    ``path`` is checked first (``check_out``). A directory's missing
    parents are created; on failure they are removed again, deepest
    first, while they are empty. A file needs its parent."""
    path = check_out(path, directory=directory)
    created = list(itertools.takewhile(lambda parent: not parent.exists(), path.parents))  # deepest first
    partial = path.with_name(f".{path.name}.partial-{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if directory:
            partial.mkdir()
        yield partial
        os.replace(partial, path)
    except BaseException:
        if directory:
            shutil.rmtree(partial, ignore_errors=True)
        else:
            partial.unlink(missing_ok=True)
        for parent in created:
            try:
                parent.rmdir()
            except OSError:  # not empty, so neither are its ancestors
                break
        raise


def log_text(value) -> str:
    """One run-log cell: a float as ``%.9g``, anything else as ``str``."""
    return "%.9g" % value if isinstance(value, float) else str(value)


class CsvLog:
    """A run log file, written row by row; closes as a context manager.

    A row is formatted with one ``%`` operation whose format puts ``%.9g``
    where a cell is a float and ``%s`` elsewhere, which is `log_text`'s
    rule. The format is built once per sequence of cell types."""

    def __init__(self, path: Path, header, preamble: str | None = None):
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "wb")
        self._formats: dict[tuple[type, ...], str] = {}
        if preamble is not None:
            self._fh.write(preamble.encode("ascii") + b"\n")
        self.row(header)

    def _line(self, cells) -> str:
        cells = tuple(cells)
        kinds = tuple(map(type, cells))
        fmt = self._formats.get(kinds)
        if fmt is None:
            fmt = ",".join(["%.9g" if issubclass(k, float) else "%s" for k in kinds]) + "\n"
            self._formats[kinds] = fmt
        return fmt % cells

    def row(self, cells) -> None:
        self._fh.write(self._line(cells).encode("ascii"))

    def rows(self, rows) -> None:
        """Several rows in one write, each with the bytes `row` writes."""
        self._fh.write("".join(map(self._line, rows)).encode("ascii"))

    def __enter__(self) -> CsvLog:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()
