#!/usr/bin/env python3
"""Compare the CLI's vectorized '%.9g' with Python's own over many floats.

Usage:
    python scripts/g9stress.py [--count N]

Draws, with numpy.random.default_rng(2026) and a random sign per value,
the values of ten blocks, and adds one fixed block of both signs:

  - 6 blocks of N magnitudes 10**U(-7, 11);
  - the floats within 40 ulps of 10**k, k = -6..10 (1,377 values),
    found by stepping the float's int64 bits;
  - 3 blocks of N // 3 nine-digit decimal ties float(f"{n*10 + 5}e{e - 9}"),
    n in [10**8, 10**9) and e in [-5, 9], each with the floats next to it
    toward 0 and toward inf;
  - +-0, +-inf, +-nan, +-5e-324, +-1.7976931348623157e308 and, for
    k = -4..8, the carries just below 10**k: the three floats below it
    and 9.999999999e(k-1), which all round up to 10**k (114 values).
    With the rest, they reach every branch of records().

Each block goes through _g9format.records() of this tree's src/ and is
compared, value by value, with "%.9g\\n" * len % tuple(values). With the
default N = 1,000,000 that is 9,001,488 values. Prints one JSON line:
the number of values, the number of mismatches and the first MAX_SHOWN
of them as [value.hex(), records() text, '%' text]. Exits 0 when no
value differs and 1 when some do.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from grippertool._g9format import records  # noqa: E402

MAX_SHOWN = 5


def blocks(count):
    """Yield the float64 blocks described in the module docstring."""
    rng = np.random.default_rng(2026)

    def signed(values):
        return values * rng.choice([-1.0, 1.0], values.size)

    for _ in range(6):
        yield signed(10.0 ** rng.uniform(-7.0, 11.0, count))
    powers = np.array([float(f"1e{k}") for k in range(-6, 11)])
    yield signed((powers.view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64).ravel())
    for _ in range(3):
        n = rng.integers(10**8, 10**9, count // 3)
        e = rng.integers(-5, 10, n.size)
        ties = np.array([float(f"{m * 10 + 5}e{k - 9}") for m, k in zip(n.tolist(), e.tolist())])
        yield signed(np.concatenate([np.nextafter(ties, 0.0), ties, np.nextafter(ties, np.inf)]))
    carries = [float(f"9.999999999e{k - 1}") for k in range(-4, 9)]
    for _ in range(3):
        powers = np.nextafter(powers, 0.0)
        carries += powers[2:15].tolist()   # 10**-4 .. 10**8
    fixed = np.array([0.0, np.inf, np.nan, 5e-324, 1.7976931348623157e308, *carries])
    yield np.concatenate([fixed, -fixed])


def compare(count):
    """The JSON-ready summary of comparing every block of count."""
    values = mismatches = 0
    shown = []
    for block in blocks(count):
        ends = np.full(block.size, ord("\n"), dtype=np.uint8)
        got = records(block, ends).tobytes().translate(None, b"\0").decode("ascii").splitlines()
        want = ("%.9g\n" * block.size % tuple(block.tolist())).splitlines()
        if len(got) != len(want):
            raise RuntimeError(f"records() wrote {len(got)} lines for {len(want)} values")
        wrong = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        values += block.size
        mismatches += len(wrong)
        shown += [[float(block[i]).hex(), got[i], want[i]] for i in wrong[:MAX_SHOWN - len(shown)]]
    return {"values": values, "mismatches": mismatches, "first": shown}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=1_000_000,
                        help="magnitudes per block (default 1,000,000)")
    args = parser.parse_args()
    if args.count < 3:
        parser.error("--count must be at least 3")
    summary = compare(args.count)
    print(json.dumps(summary))
    return 1 if summary["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
