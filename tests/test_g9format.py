"""The CLI's vectorized '%.9g' writes exactly what Python's '%.9g' writes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from grippertool import _g9format
from grippertool._g9format import grid_blocks, records, table_blocks

from sweep_reference import assert_same_text

try:
    from numpy._core import _multiarray_umath as UMATH
except ImportError:   # numpy 1
    from numpy.core import _multiarray_umath as UMATH


ROOT = Path(__file__).resolve().parent.parent


def g9(values, *nan_text):
    """Each value's text from records(), one per line."""
    values = np.asarray(values, dtype=np.float64)
    ends = np.full(len(values), ord("\n"), dtype=np.uint8)
    return records(values, ends, *nan_text).tobytes().translate(None, b"\0").decode("ascii")


def reference(values):
    return "".join("%.9g\n" % value for value in np.asarray(values, dtype=np.float64).tolist())


def assert_texts_match(values):
    got, want = g9(values).splitlines(), reference(values).splitlines()
    assert len(got) == len(want) == len(values)
    wrong = [(float(v), g, w) for v, g, w in zip(np.asarray(values), got, want) if g != w]
    assert not wrong, wrong[:5]


def neighbours(value, ulps=3):
    """value and the floats up to ulps steps below and above it."""
    below, above = [value], [value]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def ulps_from(value, steps):
    """The floats steps ulps from the positive float value."""
    return (np.float64(value).view(np.int64) + steps).view(np.float64)


def window_mismatches():
    """The first five (value, text, '%.9g' text) that table_blocks writes
    otherwise, of every float within 4,096 ulps of each 10**X, X = -5..9,
    10**X included, in both signs: wide of the few ulps by which a log10
    may misplace the decade."""
    values = np.concatenate([ulps_from(float(f"1e{x}"), np.arange(-4096, 4097))
                             for x in range(-5, 10)])
    values = np.concatenate([values, -values])
    got = "".join(table_blocks(values[:, None], 4096)).splitlines()
    assert len(got) == len(values) == 245_790
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, reference(values).splitlines())
            if g != w][:5]


def dispatched():
    """The CPU features above its baseline that numpy dispatches to here."""
    return [name for name in UMATH.__cpu_dispatch__ if UMATH.__cpu_features__.get(name)]


def without_simd_dispatch(code):
    """The stdout of code, run in a fresh interpreter with src/ and tests/
    on its path and NPY_DISABLE_CPU_FEATURES naming every feature of
    dispatched(), as on a CPU with numpy's baseline alone. Skips the
    calling test where numpy dispatches to no such feature."""
    features = dispatched()
    if not features:
        pytest.skip("numpy dispatches to no CPU feature above its baseline here")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


CRAFTED = [
    *(v for k in range(-5, 11) for v in neighbours(10.0 ** k)),
    # the fixed/scientific edge: the first rounds up to 0.0001, X = -4
    9.9999999995e-05, 1e-04, *neighbours(9.9999999995e-05),
    # nine digits and the carry into a tenth
    99999999.95, 999999999.4, 999999999.5, 1e9, *neighbours(999999999.5),
    # ties in fixed notation, exact in binary: '%.9g' rounds half to even
    12345678.25, 12345678.75, 1234567.125, 0.5, 2.5, 0.125,
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
]


class TestExactness:
    def test_crafted_values_of_both_signs(self):
        assert_texts_match(CRAFTED + [-v for v in CRAFTED])

    def test_every_exponent_of_fixed_and_scientific_notation(self):
        rng = np.random.default_rng(9)
        mantissas = rng.uniform(1.0, 10.0, 40)
        assert_texts_match([m * 10.0 ** k for k in range(-12, 14) for m in mantissas])

    def test_seeded_property_over_a_million_values(self):
        rng = np.random.default_rng(37)
        # log-uniform magnitudes, the floats within 40 ulps of each 10**k,
        # and nine-digit decimal ties (n*10 + 5)*10**(e - 9) with the floats
        # one ulp away on either side
        n = rng.integers(10**8, 10**9, 20_000)
        e = rng.integers(-4, 9, n.size)
        ties = np.array([float(f"{m * 10 + 5}e{k - 9}") for m, k in zip(n.tolist(), e.tolist())])
        magnitudes = np.concatenate([
            10.0 ** rng.uniform(-6.0, 10.0, 1_000_000),
            *(ulps_from(float(f"1e{k}"), np.arange(-40, 41)) for k in range(-6, 11)),
            np.nextafter(ties, 0.0), ties, np.nextafter(ties, np.inf),
        ])
        assert_texts_match(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size))

    def test_nine_digit_integers_and_their_tenths(self):
        # every n*10**k with few significant digits: trailing zeros stripped
        rng = np.random.default_rng(11)
        n = rng.integers(1, 10**9, 20_000)
        digits = n // 10 ** rng.integers(0, 9, n.size)
        assert_texts_match(digits * 10.0 ** rng.integers(-13, 1, n.size))

    def test_decimal_ties_that_are_not_binary_ties(self):
        # nine digits and a 5, parsed: the float lies just above or below
        # the decimal tie, and its scaled product often rounds onto it
        rng = np.random.default_rng(21)
        texts = [f"{rng.integers(1, 10)}.{rng.integers(0, 10**8):08d}5e{k}"
                 for k in range(-4, 9) for _ in range(200)]
        assert_texts_match([float(text) for text in texts])

    def test_carries_and_decade_edges_take_the_fast_path(self):
        # the product of each rounds to n = 10**9, a carry that moves X up
        # one decade with n = 10**8, or log10 lands one decade off; all of
        # them stay exact and off the fallback
        values = np.array([9.99999999999e-05, 0.999999999999, 9.99999999999, 99999.9999999,
                           99999999.9999, *(v for k in range(-4, 9)
                                            for v in neighbours(10.0 ** k)[1:])])
        assert _g9format._exponent_digits(values)[2].all()
        assert_texts_match(values)
        # the floats within 5,000 ulps below 10**k whose floor(log10) is k,
        # one decade high: their product rounds to the carried n = 10**8
        for k in (*range(-4, 0), *range(2, 9)):
            below = ulps_from(float(f"1e{k}"), np.arange(-5000, 0))
            high = below[np.floor(np.log10(below)) == k]
            exp, n, fast = _g9format._exponent_digits(high)
            assert fast.all() and (exp == k).all() and (n == 10**8).all()
            assert_texts_match(high)

    def test_digit_groups_of_zeros_and_nines(self):
        # nine digits with a 3-digit group of 000 or 999 at every fixed
        # exponent, the floats just below each, and a value just below each
        # whose rounding carries up through the groups to those digits
        digits = [100000000, 100000001, 100001000, 101000000, 999000999, 123000456,
                  999999999, 100999999, 999999000, 120000999]
        exact = [float(f"{n}e{k - 8}") for n in digits for k in range(-4, 9)]
        carried = [float(f"{n * 100 - 4}e{k - 10}") for n in digits for k in range(-4, 9)]
        below = [v for value in exact for v in neighbours(value)[:3]]
        values = np.array(exact + carried + below)
        assert _g9format._exponent_digits(values)[2].all()
        assert reference(exact) == reference(carried)
        assert_texts_match(np.concatenate([values, -values]))

    def test_block_of_fallback_values(self):
        # scientific notation, subnormals, products on a midpoint, +-0 and
        # +-inf: no value of the block takes the fast path
        tiny = np.geomspace(1e-300, 1e-200, 2001)
        ties = 1e7 + np.arange(1000) + 0.25   # nine digits and a 5 after them
        zeros_and_infs = np.array([0.0, -0.0, math.inf, -math.inf])
        for values in (tiny, -tiny, np.geomspace(5e-324, 2e-308, 500), ties, ties + 0.5,
                       zeros_and_infs):
            assert not _g9format._exponent_digits(np.abs(values))[2].any()
            assert_texts_match(values)

    def test_stress_script_finds_no_mismatch(self):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "g9stress.py"),
                               "--count", "3000"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"values": 6 * 3000 + 17 * 81 + 9 * 1000 + 114,
                                           "mismatches": 0, "first": []}


class TestDecadeWindows:
    def test_every_float_near_a_decade_edge(self):
        assert window_mismatches() == []

    def test_without_simd_dispatch(self):
        # numpy's vector log10 differs from libm's in the last bit on some
        # inputs, so the window runs again with every dispatched feature off
        code = ("from test_g9format import dispatched, window_mismatches; "
                "print(window_mismatches(), dispatched())")
        assert without_simd_dispatch(code) == "[] []\n"


class TestNanText:
    # +-nan among fast, fallback (scientific, inf, a tie) and +-0 values
    VALUES = [1.5, math.nan, -0.0, 1e-300, -math.nan, 0.0, -123.456, math.inf, 12345678.25,
              -math.nan, -2.5e20, math.nan]

    def test_nan_records_hold_the_text_alone(self):
        values = np.array(self.VALUES)
        nan = np.isnan(values)
        assert np.signbit(values[nan]).any() and not np.signbit(values[nan]).all()
        want = ["INFEASIBLE" if isnan else text
                for isnan, text in zip(nan, reference(values).splitlines())]
        assert g9(values, "INFEASIBLE").splitlines() == want
        ends = np.full(len(values), ord(","), dtype=np.uint8)
        plain, marked = records(values, ends), records(values, ends, "INFEASIBLE")
        assert (marked[~nan] == plain[~nan]).all()
        # a text of every slot but the end byte
        assert g9(values, "x" * (_g9format.FIELD - 1)).splitlines() == [
            "x" * (_g9format.FIELD - 1) if isnan else text for isnan, text in zip(nan, want)]

    def test_default_text_is_nan(self):
        assert g9(self.VALUES) == reference(self.VALUES)
        assert g9(self.VALUES).count("nan\n") == 4


class TestMemory:
    def test_traced_peak_per_value(self):
        # one block of CHUNK_LINES pose lines, 8,192 values, nan among them.
        # Nine uint32 divisions and a new array per slot step peaked at 60.2
        # bytes a value; the digit groups and one reused mask at 43.2
        values = np.random.default_rng(8).uniform(-3.0, 3.0, 8192)
        values[::10] = math.nan
        ends = np.tile(np.frombuffer(b",\n", dtype=np.uint8), 4096)
        records(values, ends, "INFEASIBLE")   # numpy's first-call allocations untraced
        tracemalloc.start()
        try:
            records(values, ends, "INFEASIBLE")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(values) <= 43.5


class TestBlocks:
    def test_table_lines_across_blocks(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-5.0, 95.0, (1001, 2))
        values[::7, 1] = math.nan
        text = "".join(table_blocks(values, 100))
        assert_same_text(text, "%.9g,%.9g\n" * 1001 % tuple(values.ravel().tolist()))

    # (rows, columns), block_lines and the lines of each block: whole rows,
    # ceil(rows / ceil(cells / block_lines)) of them, at least one
    LAYOUTS = [
        pytest.param((7, 13), 40, [39, 39, 13], id="short-last-block"),
        pytest.param((7, 13), 30, [26, 26, 26, 13], id="whole-rows"),
        pytest.param((81, 101), 4096, [4141, 4040], id="over-by-less-than-a-row"),
        pytest.param((3, 10), 10, [10, 10, 10], id="rows-of-a-block"),
        pytest.param((25, 1), 10, [9, 9, 7], id="one-column"),
        pytest.param((1, 25), 10, [25], id="one-row-longer-than-a-block"),
    ]

    @staticmethod
    def grid(shape):
        """A grid with nan cells, and keys whose texts differ in width and
        form (1e-05)."""
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        grid = rng.uniform(-5.0, 95.0, shape)
        grid[rng.random(shape) < 0.1] = math.nan
        return grid, [7.5 * a for a in range(shape[0])], [1e-5 * d * d for d in range(shape[1])]

    @staticmethod
    def grid_text(rows, outer, inner, nan_text):
        return "".join(f"{a:.9g},{d:.9g},{nan_text if math.isnan(w) else format(w, '.9g')}\n"
                       for a, row in zip(outer, rows) for d, w in zip(inner, row))

    def test_grid_lines_across_blocks(self):
        # 7 rows of 13 cells at 10 lines a block: each row a block of its own
        self.test_grid_layout((7, 13), 10, [13] * 7)

    @pytest.mark.parametrize("shape, block_lines, lines", LAYOUTS)
    def test_grid_layout(self, shape, block_lines, lines):
        grid, outer, inner = self.grid(shape)
        blocks = list(grid_blocks(grid, block_lines, outer, inner, "INFEASIBLE"))
        assert [block.count("\n") for block in blocks] == lines
        assert_same_text("".join(blocks),
                         self.grid_text(grid.tolist(), outer, inner, "INFEASIBLE"))

    def test_array_grid_is_read_in_place(self, monkeypatch):
        # the payload numpy pass's weights reach records() with no copy,
        # in blocks of several rows and of one row longer than a block
        grid, outer, inner = self.grid((7, 13))
        seen = []

        def spy(values, ends, nan_text):
            seen.append(np.shares_memory(values, grid))
            return records(values, ends, nan_text)

        monkeypatch.setattr(_g9format, "records", spy)
        for block_lines, blocks in ((30, 4), (10, 7)):
            seen.clear()
            text = "".join(grid_blocks(grid, block_lines, outer, inner, "INFEASIBLE"))
            assert seen == [True] * blocks
            assert_same_text(text, self.grid_text(grid.tolist(), outer, inner, "INFEASIBLE"))

    @pytest.mark.parametrize("lines", [1, 9, 10, 11])
    def test_block_sizes(self, lines):
        values = np.arange(lines * 3, dtype=np.float64).reshape(lines, 3) / 7.0
        blocks = list(table_blocks(values, 10))
        assert len(blocks) == -(-lines // 10)
        assert_same_text("".join(blocks),
                         "%.9g,%.9g,%.9g\n" * lines % tuple(values.ravel().tolist()))
