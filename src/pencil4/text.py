"""Exact ``%.17g`` text of float64 arrays, as fixed-width byte cells.

``cells(values)`` gives the ``"%.17g" % x`` text of each value as a row of
``WIDTH`` bytes, padded with NUL bytes, and formats each distinct bit
pattern once (bits, not values: ``0.0`` and ``-0.0`` print differently and
NaN != NaN).  No Python string is made per value: a whole text is
``cells[cells != 0].tobytes()``.

Most values take a numpy kernel of integer arithmetic, after Loitsch
(*Printing floating-point numbers quickly and accurately with integers*,
PLDI 2010) and Adams (*Ryu revisited: printf floating point conversion*,
OOPSLA 2019):

* *Digits.*  A finite x is m 2^e with m < 2^53.  With k = floor(log10 |x|),
  the 17 digits are x 10^p rounded to an integer, p = 16 - k.  The kernel
  takes only the positional form of ``%.17g`` (-4 <= k <= 16), so
  0 <= p <= 20 and 10^p = 5^p 2^p with 5^p < 2^47: the 64-bit table entry
  of 10^p is exact, and so is the 128-bit product m 5^p, taken in 32-bit
  limbs.  Its integer part D holds the digits and its fraction decides the
  rounding exactly; the error bound of a truncated table is zero here.
* *Text.*  D splits into 1 + 8 + 8 digits.  Each 8 become ASCII bytes of one
  little-endian ``uint64`` word by SWAR (three multiply-shift steps on
  32-, 16- and 8-bit lanes).  Trailing zeros of the fraction are masked
  off, and the words are shifted into place around the decimal point with
  byte masks chosen by the decimal exponent.

Python's own ``%`` formats, into the same cells, every value the kernel
does not decide: the exponent form (|x| < 1e-4, or >= 1e17 after
rounding), zeros, subnormals, NaN and infinities, an exact tie (which
``%.17g`` rounds half to even) and a misestimated k.  It also formats every
call of fewer than ``SMALL`` distinct values.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # the longest %.17g text: -1.2345678901234567e-308
# Calls with fewer distinct values take % alone: a kernel call is ~100 numpy
# passes with a fixed cost of a few tenths of a ms.  On the 120x120 grid
# benchmark scenes (seed 41, in process, medians of 7 runs) curvature, whose
# blocks hold a few hundred distinct values, took 55-66 ms for both scenes
# with every call through the kernel and 51-52 ms with this threshold; 2,000
# gained nothing more.
SMALL = 1000
# Values per kernel call.  Its temporaries, ~120 bytes per value, stay
# below the traced peak of a 120x120 export; 2,048-value chunks took 85-87 ms
# for the two eval runs above instead of 68-72 ms, and 8,192 76-79 ms.
CHUNK = 4096

_U = np.uint64
_HALF = _U(1 << 63)
_ALL = _U(2**64 - 1)
_E16, _E8 = _U(10**16), _U(10**8)
_ZEROS = _U(0x3030303030303030)  # "00000000"
_M32 = _U(0xFFFFFFFF)
_K_MIN, _K_MAX = -4, 16  # the positional form of %.17g


def _pow10_table():
    """10^p = T[p] 2^Q[p] exactly, T[p] in [2^63, 2^64), for p = 16 - k."""
    fives = [5**p for p in range(17 - _K_MIN)]  # 10^p = 5^p 2^p, 16 - _K_MAX = 0
    shifts = [64 - f.bit_length() for f in fives]
    return (np.array([f << sh for f, sh in zip(fives, shifts)], np.uint64),
            np.array([p - sh for p, sh in enumerate(shifts)], np.int64))


def _layout_tables():
    """Per decimal exponent X, in column X - _K_MIN: the bit shifts that move
    the digit string to the places of the integer and of the fraction
    digits; the masks of the digits 1-8 and 9-16 (the b and c words) that
    lie before the point; and per word of a cell, the masks that keep the
    integer and the fraction digits and the constant bytes ('.' or
    '0.000')."""
    def words(positions, byte=0xFF):
        cell = bytearray(WIDTH)
        for i in positions:
            cell[i] = byte
        return [int(w) for w in np.frombuffer(bytes(cell), "<u8")]

    shifts, before_point, cell_masks = [], [], []
    for x in range(_K_MIN, _K_MAX + 1):
        if x >= 0:  # d0..dx '.' d(x+1)..d16
            shifts.append([8, 16])
            masks = [words(range(1, x + 2)), words(range(x + 3, 19)), words([x + 2], ord("."))]
        else:  # '0.', -x - 1 zeros, d0..d16
            shifts.append([8 * (2 - x)] * 2)
            masks = [words(range(2 - x, 19 - x)), words([]),
                     [a | b for a, b in zip(words([1, *range(3, 2 - x)], ord("0")),
                                            words([2], ord(".")))]]
        before_point.append([words(range(min(x, 8)))[0], words(range(x - 8))[0]])
        cell_masks.append(np.array(masks, np.uint64).T)  # (word, mask)
    return (np.array(shifts, np.uint64).T, np.array(before_point, np.uint64).T,
            np.moveaxis(np.array(cell_masks, np.uint64), 0, -1).copy())


_T, _Q = _pow10_table()
_SHIFTS, _BEFORE_POINT, _CELL_MASKS = _layout_tables()


def _product(m: np.ndarray, t: np.ndarray):
    """The high and low 64-bit words of m t, from 32-bit limbs."""
    m0, m1, t0, t1 = m & _M32, m >> _U(32), t & _M32, t >> _U(32)
    low, mid, cross, hi = m0 * t0, m0 * t1, m1 * t0, m1 * t1
    hi += mid >> _U(32)
    hi += cross >> _U(32)
    mid &= _M32
    mid += cross & _M32
    mid += low >> _U(32)
    hi += mid >> _U(32)
    low &= _M32
    low |= mid << _U(32)
    return hi, low


def _decimal(bits: np.ndarray, x: np.ndarray):
    """The 17 significant digits D of each x as an integer, its decimal
    exponent k (|x| = D 10^(k - 16) after rounding) and whether the kernel
    decided both: x in the positional range, k estimated right, no tie."""
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    # 1e-4 <= |x| < 1e17 lies in the binades 2^-14 .. 2^56
    ok = (biased >= 1023 - 14) & (biased <= 1023 + 56)
    k = np.floor(np.log10(np.where(ok, np.abs(x), 1.0))).astype(np.int64)
    ok &= (k >= _K_MIN) & (k <= _K_MAX)
    p = np.clip(16 - k, 0, len(_T) - 1)
    # |x| 10^p = m T 2^-s, and 59 <= s <= 63 for a right k
    s = 1075 - biased - _Q[p]
    ok &= (s >= 59) & (s <= 63)
    s = np.clip(s, 59, 63).astype(np.uint64)
    hi, lo = _product((bits & _U((1 << 52) - 1)) | _U(1 << 52), _T[p])
    up = _U(64) - s
    d = (hi << up) | (lo >> s)  # the integer part
    lo <<= up  # the fraction, exactly, in units of 2^-64
    ok &= (d >= _E16) & (d < _E16 * _U(10)) & (lo != _HALF)
    d += lo > _HALF
    carry = d == _E16 * _U(10)  # 99..9.5 rounds up to the next power of ten
    d[carry] = _E16
    k += carry
    ok &= k <= _K_MAX
    return d, k, ok


def _digits8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10^8 as bytes 0-9 of a little-endian
    word, the most significant digit in the lowest byte."""
    hi = v // _U(10000)
    w = hi | ((v - hi * _U(10000)) << _U(32))  # two 4-digit lanes
    q = ((w * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # lane // 100
    w = q | ((w - q * _U(100)) << _U(16))  # four 2-digit lanes
    q = ((w * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # lane // 10
    return q | ((w - q * _U(10)) << _U(8))


def _kept(w: np.ndarray) -> np.ndarray:
    """0xFF in each byte of w up to its highest non-zero byte."""
    t = (w + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)  # bytes are 0-9
    t |= t >> _U(8)
    t |= t >> _U(16)
    t |= t >> _U(32)
    return (t >> _U(7)) * _U(0xFF)


def _digit_string(d: np.ndarray, k: np.ndarray, column: np.ndarray):
    """The 17 digits of D as ASCII bytes 0-16 of three little-endian words,
    trailing zeros of the fraction masked off, and whether a point is printed
    (a fraction digit is left, or |x| < 1)."""
    int_b, int_c = np.take(_BEFORE_POINT, column, axis=1)
    lead = d // _E16
    d = d - lead * _E16
    b8 = d // _E8
    wb, wc = _digits8(b8), _digits8(d - b8 * _E8)
    keep_c = _kept(wc)
    keep_b = np.where(wc != _U(0), _ALL, _kept(wb))
    point = ((keep_b & ~int_b) | (keep_c & ~int_c)) != _U(0)
    point |= k < 0
    wb |= _ZEROS
    wb &= keep_b | int_b
    wc |= _ZEROS
    wc &= keep_c | int_c
    return (lead | _U(0x30) | (wb << _U(8)), (wb >> _U(56)) | (wc << _U(8)), wc >> _U(56)), point


def _text(d: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The positional text of D 10^(k - 16), unsigned, as the three words of
    a cell: the digit string moved up to the places of the integer digits
    and of the fraction digits, each kept by its mask, and the constants."""
    column = np.minimum(np.maximum(k, _K_MIN), _K_MAX) - _K_MIN
    digits, point = _digit_string(d, k, column)
    shifts = np.take(_SHIFTS, column, axis=1)
    point = np.where(point, _ALL, _U(0))
    out = np.empty((len(d), WIDTH // 8), "<u8")
    for i in range(WIDTH // 8):  # word by word, to keep few temporaries
        *keeps, word = np.take(_CELL_MASKS[i], column, axis=1)
        word &= point
        for by, keep in zip(shifts, keeps):
            placed = digits[i] << by
            if i:
                placed |= digits[i - 1] >> (_U(64) - by)
            word |= placed & keep
        out[:, i] = word
    return out


def _kernel(x: np.ndarray):
    """The cells of a 1-D float64 array and a mask of the values whose cell
    the kernel decided; the other cells are garbage.  Each step is a helper,
    so its temporaries are freed as it returns."""
    bits = x.view(np.uint64)
    d, k, ok = _decimal(bits, x)
    out = _text(d, k)
    out[:, 0] |= (bits >> _U(63)) * _U(ord("-"))
    return out.view(np.uint8), ok


def _printf(x: np.ndarray) -> np.ndarray:
    """The cells of a 1-D float64 array through Python's own ``%``."""
    text = (f"%-{WIDTH}.17g" * len(x)) % tuple(x.tolist())
    cells = np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(x), WIDTH)
    return np.where(cells == ord(" "), np.uint8(0), cells)


def cells(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of a float64 array as NUL-padded byte cells, shape
    ``values.shape + (WIDTH,)``, each distinct bit pattern formatted once."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    if len(distinct) < SMALL:
        table = _printf(distinct)
    else:
        table = np.empty((len(distinct), WIDTH), np.uint8)
        for start in range(0, len(distinct), CHUNK):
            chunk = distinct[start:start + CHUNK]
            got, ok = _kernel(chunk)
            if not ok.all():
                got[~ok] = _printf(chunk[~ok])
            table[start:start + CHUNK] = got
    return table[inverse.reshape(values.shape)]
