"""Exact ``%.17g`` text of float64 arrays, as fixed-width byte cells, and
the CSV and OBJ lines made of them.

``cells(values)`` gives the ``"%.17g" % x`` text of each value as a row of
``WIDTH`` bytes, padded with NUL bytes; it formats every value it is given.
No Python string is made per value: a whole text is
``cells[cells != 0].tobytes()``.  ``integer_cells`` does the same for the
``%d`` text of integers below 10^8, in cells of 8 bytes.

``blocks`` and ``faces`` fill CSV and OBJ line templates with cells: a block
is a uint8 matrix per template, a row per line with separators and markers
as fixed bytes, whose text is its non-zero bytes, kept as bytes throughout.

Most values take a numpy kernel of exact arithmetic, after Loitsch
(*Printing floating-point numbers quickly and accurately with integers*,
PLDI 2010) and Adams (*Ryu revisited: printf floating point conversion*,
OOPSLA 2019):

* *Digits.*  A finite x is m 2^e with m < 2^53.  With k = floor(log10 |x|),
  the 17 digits are |x| 10^p rounded to an integer, p = 16 - k.  The kernel
  takes only the positional form of ``%.17g`` (-4 <= k <= 16), so
  0 <= p <= 20 and 10^p is an exact double.  k comes from a table over the
  binary exponent and one compare.  Dekker's two-product (Numer. Math. 18,
  1971) writes |x| 10^p exactly as hi + err; hi >= 2^53 is an integer, so the
  integer part D and the fraction, which decides the rounding, are exact.
  A misestimated k puts D outside [10^16, 10^17).
* *Text.*  D splits into 1 + 8 + 8 digits.  Each 8 become ASCII bytes of one
  little-endian ``uint64`` word by SWAR (three multiply-shift steps on
  32-, 16- and 8-bit lanes).  Trailing zeros of the fraction are masked
  off, and the words are shifted into place around the decimal point with
  byte masks chosen by the decimal exponent.

Python's own ``%`` formats, into the same cells, every value the kernel
does not decide: the exponent form (|x| < 1e-4, or >= 1e17 after
rounding), zeros, subnormals, NaN and infinities, an exact tie (which
``%.17g`` rounds half to even) and a misestimated k.
"""

from __future__ import annotations

import string

import numpy as np

WIDTH = 24  # the longest %.17g text: -1.2345678901234567e-308
# Values per kernel call and grid points per block of text, so that a block's
# x1..x4 take one call, whose temporaries, ~120 bytes per value, stay below
# the traced peak of a 120x120 export.  The six grid benchmark operations took
# 6.0-6.4% less time than with blocks of 1,024 and 4,096 points (seeds 11 and
# 19, in process).  The export drops its sweep before its first block and
# frees each written block before the next, so its 120x120 traced peak stays
# in the sweep (3.17 MB).
CHUNK = 8192
BLOCK_POINTS = 2048

_U = np.uint64
_ALL = _U(2**64 - 1)
_E16, _E8 = _U(10**16), _U(10**8)
_ZEROS = _U(0x3030303030303030)  # "00000000"
_K_MIN, _K_MAX = -4, 16  # the positional form of %.17g


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


def _halves(x):
    """Veltkamp's split x = upper + lower, each half of at most 26 bits."""
    c = x * (2.0**27 + 1)
    upper = c - (c - x)
    return upper, x - upper


# Tables over j = k - _K_MIN + 1 = k + 5, k in _K_MIN - 1 .. _K_MAX + 1.  _J_OF:
# per biased exponent, the j of floor(log10) of the binade's least value in
# the positional binades 2^-14 .. 2^56, else the j of 1.0, which takes their
# place.  _TENS: 10^(k+1).  _POW10: 10^max(16 - k, 0), exact, and its halves.
_E = np.arange(2048) - 1023
_J_OF = np.where((_E >= -14) & (_E <= 56), np.floor(_E * np.log10(2)), 0).astype(int) + 5
_TENS = 10.0 ** np.arange(_K_MIN, _K_MAX + 2)
_POW10 = np.array([float(10 ** max(16 - k, 0)) for k in range(_K_MIN - 1, _K_MAX + 2)])
_POW10_HI, _POW10_LO = _halves(_POW10)
_SHIFTS, _BEFORE_POINT, _CELL_MASKS = _layout_tables()


def _decimal(bits: np.ndarray, x: np.ndarray):
    """The 17 significant digits D of each x as an integer, its decimal
    exponent k (|x| = D 10^(k - 16) after rounding) and whether the kernel
    decided both: x in the positional range, k estimated right, no tie."""
    biased = (bits >> _U(52)) & _U(0x7FF)
    # 1e-4 <= |x| < 1e17 lies in the binades 2^-14 .. 2^56
    ok = (biased >= _U(1023 - 14)) & (biased <= _U(1023 + 56))
    ax = np.where(ok, np.abs(x), 1.0)
    j = _J_OF[biased]
    j += ax >= _TENS[j]
    k = j + (_K_MIN - 1)
    ok &= (k >= _K_MIN) & (k <= _K_MAX)
    # |x| 10^p = hi + err exactly (Dekker), hi the rounded product
    hi = ax * _POW10[j]
    (a1, a2), b1, b2 = _halves(ax), _POW10_HI[j], _POW10_LO[j]
    err = a1 * b1 - hi + a1 * b2 + a2 * b1 + a2 * b2  # each partial sum is exact
    floor = np.floor(err)
    d = (hi.astype(np.int64) + floor.astype(np.int64)).astype(np.uint64)  # the integer part
    err -= floor  # the fraction, rounded in order: above or below 0.5 is exact, 0.5 goes to %
    ok &= (d >= _E16) & (d < _E16 * _U(10)) & (err != 0.5)
    d += err > 0.5
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
    ``values.shape + (WIDTH,)``, every value formatted."""
    flat = values.reshape(-1)
    table = np.empty((len(flat), WIDTH), np.uint8)
    for start in range(0, len(flat), CHUNK):
        chunk, cells = flat[start:start + CHUNK], table[start:start + CHUNK]
        cells[...], ok = _kernel(chunk)
        if not ok.all():
            cells[~ok] = _printf(chunk[~ok])
    return table.reshape(*values.shape, WIDTH)


def integer_cells(values: np.ndarray) -> np.ndarray:
    """The ``%d`` text of integers 0 <= v < 10^8 as NUL-padded byte cells,
    shape ``values.shape + (8,)``: the ``_digits8`` word of each v, shifted
    down past its leading zeros."""
    v = np.asarray(values).astype(np.uint64)
    zeros = sum((v < _U(10**p)).astype(np.uint64) for p in range(1, 8))
    words = (_digits8(v) | _ZEROS) >> (zeros * _U(8))
    return words.astype("<u8").view(np.uint8).reshape(*v.shape, 8)


def csv_line(n_fields: int, status: bool) -> str:
    """The line template of a CSV row: the fields, then the marker."""
    return ",".join([*(f"{{{j}}}" for j in range(n_fields)), *["{status}"] * status]) + "\n"


def _template(line: str, marker_width: int, width: int = WIDTH):
    """The constant bytes of a line template as one row of a block, and the
    name and offset of each hole: ``{j}`` for field j, ``{status}``."""
    row, holes = bytearray(), []
    for literal, name, _, _ in string.Formatter().parse(line):
        row += literal.encode("ascii")
        if name is not None:
            holes.append((name if name == "status" else int(name), len(row)))
            row += bytes(marker_width if name == "status" else width)
    return np.frombuffer(bytes(row), np.uint8), holes


def _filled(template, hole_cells: dict, shape) -> bytes:
    """The text of a block of ``shape`` points: rows of the template, each
    hole filled by its cells (broadcast to ``shape``), in one uint8 matrix
    whose non-zero bytes are the text, kept by one ``bytes.translate``."""
    row, holes = template
    block = np.broadcast_to(row, (*shape, len(row))).copy()
    for name, at in holes:
        block[..., at:at + hole_cells[name].shape[-1]] = hole_cells[name]
    return block.tobytes().translate(None, b"\0")


def _distinct(parts):
    """``np.unique(np.concatenate(parts), return_inverse=True)`` of 1-D int64
    arrays with fewer copies alive; its sort order and mask die on return."""
    bits = np.concatenate([np.empty(0, np.int64), *parts])
    order = np.argsort(bits)
    bits = bits[order]
    new = np.ones(len(bits), bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return bits[new], inverse


def blocks(fields, status=None, markers=(), lines=None, direct=()):
    """The text of float fields on a (rows, columns) grid, per block of whole
    rows, as ASCII bytes per line template of ``lines`` (default: the CSV
    row), points in row-major order: ``{j}`` holds the ``%.17g`` text of
    field j, ``{status}`` the marker of the point's status code.  A field
    has the grid's shape, one row (s) or one column (t) of it.  One table
    per call holds the cells of each distinct bit pattern (-0.0 is not 0.0)
    of the fields, indexed at their own shapes, except for grid-shaped ones
    in ``direct`` (mostly distinct: point coordinates), which each block
    formats, and bit copies of an earlier field, which take its cells.  A
    block reads the rows of an index or field that has more than one."""
    fields = [np.atleast_2d(f) for f in fields]
    n_rows, n_columns = np.broadcast_shapes(*(f.shape for f in fields))
    grid = [j for j, f in enumerate(fields) if f.shape == (n_rows, n_columns)]
    bits = {j: fields[j].view(np.int64) for j in grid}
    first = {j: next(i for i in grid if i == j or bits[i][0, 0] == bits[j][0, 0]
                     and np.array_equal(bits[i], bits[j])) for j in grid}
    copies = {j: i for j, i in first.items() if i != j}  # field: the first it copies
    direct = [j for j in grid if j in direct and j not in copies]
    tabled = {j: f for j, f in enumerate(fields) if j not in copies and j not in direct}
    patterns, inverse = _distinct([f.view(np.int64).ravel() for f in tabled.values()])
    table = cells(patterns.view(np.float64))
    parts = np.split(inverse, np.cumsum([f.size for f in tabled.values()]))
    index = {j: i.reshape(f.shape) for (j, f), i in zip(tabled.items(), parts)}
    marks = np.array(markers, dtype="S")[:, None].view(np.uint8)  # a row per marker
    templates = [_template(line, marks.shape[1])
                 for line in lines or [csv_line(len(fields), status is not None)]]
    step = max(1, BLOCK_POINTS // n_columns)
    for start in range(0, n_rows, step):
        rows = slice(start, start + step)
        hole_cells = {j: table[i[rows] if len(i) > 1 else i] for j, i in index.items()}
        if direct:
            hole_cells.update(zip(direct, cells(np.stack([fields[j][rows] for j in direct]))))
        hole_cells.update((j, hole_cells[i]) for j, i in copies.items())
        if status is not None:
            hole_cells["status"] = marks[status[rows]]
        shape = (min(step, n_rows - start), n_columns)
        yield [_filled(template, hole_cells, shape) for template in templates]


def faces(corners: np.ndarray, n_vertices: int):
    """The OBJ lines ``f a b c d`` of quads with the 0-based vertex indices
    ``corners``, as bytes per block of ``BLOCK_POINTS``, gathered from one
    table of the cells of the numbers 1..n_vertices (below 10^8)."""
    numbers = integer_cells(np.arange(1, n_vertices + 1))
    template = _template("f {0} {1} {2} {3}\n", 0, width=8)
    for start in range(0, len(corners), BLOCK_POINTS):
        quads = numbers[corners[start:start + BLOCK_POINTS]]
        yield _filled(template, dict(enumerate(np.moveaxis(quads, 1, 0))), quads.shape[:1])
