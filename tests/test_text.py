"""Tests for the vectorised %.17g formatter: every cell against Python's own
``"%.17g" % x``."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil4 import text as tx


def texts(values) -> list[str]:
    """The text of each cell of ``tx.cells``, with the kernel taking every
    value it can decide (the small-set route off)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tx, "SMALL", 0)
        cells = tx.cells(np.asarray(values, dtype=np.float64))
    return [bytes(row[row != 0]).decode("ascii") for row in cells.reshape(-1, tx.WIDTH)]


def from_bits(*patterns: int) -> list[float]:
    return [struct.unpack("<d", struct.pack("<Q", b))[0] for b in patterns]


def neighbours(x: float, ulps: int = 1) -> list[float]:
    out = [x]
    for _ in range(ulps):
        out = [math.nextafter(out[0], -math.inf), *out, math.nextafter(out[-1], math.inf)]
    return out


_LISTED = [
    *[y for e in range(-307, 309) for y in neighbours(float(f"1e{e}"))],
    # the positional form of %.17g ends below 1e-4 and at 1e17
    *[y for x in (1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999999.0)
      for y in neighbours(x, 3)],
    0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308, 2.2250738585072014e-308, 2.225073858507201e-308,
    *from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
               0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF),
    # integers and halves: trailing zeros, a point or none
    *[s * (n + h) for n in (0, 1, 7, 10, 100, 12345, 10**15, 2**53 - 1, 10**16, 2**53 + 2)
      for h in (0.0, 0.5, 0.25) for s in (1, -1)],
    # exact ties at 17 digits round half to even
    1234567890123456.25, 1234567890123456.75, 0.5, 2.5,
]


class TestExactness:
    def test_listed_values(self):
        assert texts(_LISTED) == ["%.17g" % x for x in _LISTED]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_raw_bit_patterns(self, patterns):
        values = from_bits(*patterns)
        assert texts(values) == ["%.17g" % x for x in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-5, 1e18) | st.floats(-1e18, -1e-5), min_size=1, max_size=50))
    def test_positional_range(self, values):
        assert texts(values) == ["%.17g" % x for x in values]

    def test_two_million_random_bit_patterns(self):
        # half raw patterns (mostly the exponent form, which % formats), half
        # in the binades of the positional form; every cell the kernel
        # decides is checked, in one vectorised comparison
        rng = np.random.default_rng(2024)
        n = 1_000_000
        raw = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        positional = ((rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
                      | (rng.integers(1023 - 15, 1023 + 57, n, dtype=np.uint64) << np.uint64(52))
                      | rng.integers(0, 2**52, n, dtype=np.uint64))
        values = np.concatenate([raw, positional]).view(np.float64)
        cells, ok = tx._kernel(values)
        assert ok[n:].mean() > 0.9
        lines = np.empty((ok.sum(), 1 + tx.WIDTH), np.uint8)
        lines[:, 0], lines[:, 1:] = ord("\n"), cells[ok]
        got = lines[lines != 0].tobytes().decode("ascii")
        expected = ("\n%.17g" * len(lines)) % tuple(values[ok].tolist())
        if got != expected:
            bad = next(i for i, (a, b) in enumerate(zip(got.split("\n"), expected.split("\n")))
                       if a != b)
            pytest.fail(f"{values[ok][bad - 1]!r}: {got.split(chr(10))[bad]!r}")


class TestRoutes:
    def test_kernel_decides_nearly_every_random_normal(self):
        x = np.random.default_rng(5).normal(size=100_000)
        _, ok = tx._kernel(x)
        assert 1.0 - ok.mean() < 0.01

    def test_kernel_leaves_the_exponent_form_and_ties_to_percent(self):
        x = np.array([0.0, -0.0, 5e-324, 1e-5, 1e17, math.inf, math.nan,
                      1234567890123456.25, 0.001, -123.5])
        _, ok = tx._kernel(x)
        assert ok.tolist() == [False] * 8 + [True] * 2

    def test_small_sets_take_percent(self, monkeypatch):
        calls = []
        kernel = tx._kernel
        monkeypatch.setattr(tx, "_kernel", lambda x: calls.append(len(x)) or kernel(x))
        tx.cells(np.arange(tx.SMALL - 1, dtype=np.float64).repeat(3))
        assert calls == []
        tx.cells(np.arange(tx.CHUNK + tx.SMALL, dtype=np.float64))
        assert calls == [tx.CHUNK, tx.SMALL]

    def test_cells_keep_the_shape_and_share_distinct_bit_patterns(self):
        values = np.array([[0.0, -0.0, 1.5], [1.5, math.nan, -math.nan]])
        cells = tx.cells(values)
        assert cells.shape == (2, 3, tx.WIDTH) and cells.dtype == np.uint8
        assert [bytes(c[c != 0]) for c in cells.reshape(-1, tx.WIDTH)] == [
            b"0", b"-0", b"1.5", b"1.5", b"nan", b"nan"]
