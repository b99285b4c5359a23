"""Exact vectorized '%.9g' for the CLI's large sweeps.

table_blocks() and grid_blocks() give the text of a sweep's CSV lines a
block at a time, each float written as '%.9g' % value writes it:
table_blocks() block_lines lines per block, grid_blocks() whole grid rows
per block of about block_lines lines. Each float becomes one FIELD-byte
record of fixed slots, with NUL in the slots its text does not use, so
that no byte moves with the value's decimal exponent X:

    sign, "0", ".", "0", "0", "0", b0, ..., b9, end

A value below 1 (X < 0) writes "0." and then -X-1 zeros in the slots
after the sign; its nine digits d0..d8 fill b0..b8. A value of 1 or more
fills b0..bX with d0..dX, puts the decimal point in b(X+1) and the rest
of the digits after it. Body slots after the last nonzero digit, and
after dX at least, hold NUL, as do the point when no fraction digit
follows it, so the text has no leading zeros and none of the trailing
fraction zeros that '%g' strips. The end slot holds the comma or newline
that follows the field. A block's lines, each grid line's records after
the NUL-padded '%.9g,' texts of its keys, are one uint8 array; its
bytes, with one bytes.translate deleting the NULs, are the block's text.

The digits come from one float product per value: y = |x|*10**(8 - X),
with X = floor(log10|x|), rounds to the nine-digit integer n.
10**(8 - X) is exact for -5 <= X <= 8, so y is the exact product rounded
once, and y - n is exact (Sterbenz). The middles of two integers are
floats and rounding is monotone, so a y that is not on a middle lies on
the same side of each middle as the exact product: n is '%.9g''s own
rounding wherever y - n != +-1/2, and the fast path takes a finite
nonzero value only there and only for -4 <= X <= 8, where '%g' writes
fixed notation. n = 10**9 is a carry into a tenth digit: X becomes X + 1
and n becomes 10**8. A log10 one decade high lands on x within a few
ulps below 10**X, whose y rounds to n = 10**8, the carried rounding, at
once; one decade low gives n >= 10**9, which is a carry or falls back.
Every other value but nan (ties, scientific notation, subnormals, +-0
and +-inf) is formatted by Python's own '%16.9g', all of a block's such
values in one % call, and its spaces become NUL. A nan of either sign is
written as the caller's nan text, by default "nan" as '%' writes it; one
scatter puts that text in every nan record.

Only the CLI imports this module, for sweeps of at least CHUNK_LINES
lines whose floats are float64 arrays, so numpy is already loaded by the
sweep. Integer scalars carry explicit dtypes, so NumPy 1 and NumPy 2
promote alike.
"""

import numpy as np

# Slots of a record: the sign, the five of "0.000", ten body slots (nine
# digits and a point) and the end byte.
FIELD = 1 + 5 + 10 + 1
_BODY = slice(6, 16)
_SLOTS = np.arange(10, dtype=np.int8)[:, None]
# The prefix slots after the sign, each written where X is at most its
# exponent.
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_PREFIX_EXP = np.array([-1, -1, -2, -3, -4], dtype=np.int8)[:, None]

# 10**(8 - X) for -5 <= X <= 8, all exact: integers below 2**53, as
# numpy's pow need not give them. A value with X = -5 may carry to
# X = -4.
_POW10 = np.array([float(10 ** k) for k in range(14)])
_TEN = np.uint32(10)
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _exponent_digits(values):
    """(X, n, fast) for the float64 values: the decimal exponent and the
    nine-digit integer of |value|'s '%.9g' rounding where fast holds,
    which is only for finite nonzero values, and 0 and 0 elsewhere. In
    place where it can: a block's float temporaries set the sweep's peak
    memory."""
    ax = np.abs(values)
    # +-0, +-inf and nan become 1e-300, which is outside fixed notation
    # and so never fast
    ax[~((ax > 0.0) & (ax < np.inf))] = 1e-300
    shift = (8.0 - np.floor(np.log10(ax))).astype(np.intp)   # 8 - X
    y = _POW10.take(shift, mode="clip")
    y *= ax
    del ax
    n = np.rint(y)
    y -= n
    fast = np.abs(y, out=y) != 0.5
    carry = n == 1e9
    shift[carry] -= 1
    n[carry] = 1e8
    fast &= (shift >= 0) & (shift <= 12) & (n >= 1e8) & (n < 1e9)
    return (np.where(fast, 8 - shift, 0).astype(np.int8),
            np.where(fast, n, 0.0).astype(np.uint32), fast)


def _char(mask, char):
    """The byte char where mask holds, NUL elsewhere."""
    return mask.view(np.uint8) * np.uint8(ord(char))


def records(values, ends, nan_text="nan"):
    """(len(values), FIELD) uint8 records of the float64 values' '%.9g'
    texts (see the module docstring), with nan_text, of at most FIELD - 1
    ASCII characters, for each nan; ends is one byte per value, or one
    for all. The records are built slot by slot in a slot-major array, of
    which this returns the transposed view."""
    count = len(values)
    exp, n, fast = _exponent_digits(values)
    out = np.empty((FIELD, count), dtype=np.uint8)   # slot-major, transposed on return
    out[0] = _char(np.signbit(values), "-")
    prefix = exp <= _PREFIX_EXP   # the "0.000" of 0.d, 0.0d, 0.00d and 0.000d
    np.multiply(prefix.view(np.uint8), _PREFIX, out=out[1:6])
    digits = np.empty((10, count), dtype=np.uint8)
    for p in range(8, -1, -1):
        q = n // _TEN
        digits[p] = n - q * _TEN
        n = q
    digits[9] = 0
    last = ((digits[:9] != 0) * _SLOTS[:9]).max(axis=0)   # the last nonzero digit
    digits += np.uint8(ord("0"))
    # the point's body slot: after dX, and past b9 (10) for a value below 1
    point = np.maximum(exp + np.int8(1), prefix[0].view(np.int8) * np.int8(10))
    body = out[_BODY]
    np.multiply(digits, _SLOTS < point, out=body)
    body[1:] += digits[:-1] * (_SLOTS[1:] > point)
    body += _char(_SLOTS == point, ".")
    # keep the slots up to dX and up to the last nonzero digit
    body *= _SLOTS <= np.maximum(exp, last + ((last > exp) & (exp >= 0)))
    out[-1] = ends
    nan = np.isnan(values)
    slow = np.flatnonzero(~(fast | nan))   # a nan's record is overwritten last
    if len(slow):
        text = "%16.9g" * len(slow) % tuple(values[slow].tolist())
        out[:16, slow] = np.frombuffer(
            text.encode("ascii").translate(_SPACE_TO_NUL), dtype=np.uint8
        ).reshape(-1, 16).T
    out[:-1, np.flatnonzero(nan)] = np.frombuffer(
        nan_text.encode("ascii").ljust(FIELD - 1, b"\0"), dtype=np.uint8)[:, None]
    return out.T


def _keys(values):
    """The floats values' '%.9g,' texts, from one % call, as the rows of a
    NUL-padded uint8 array."""
    texts = ("%.9g, " * len(values) % tuple(values)).split()   # '%.9g' writes no space
    width = max(map(len, texts))
    joined = (f"%-{width}s" * len(texts) % tuple(texts)).encode("ascii")
    return np.frombuffer(joined.translate(_SPACE_TO_NUL), dtype=np.uint8).reshape(-1, width)


def _text(lines):
    """The text of a block's (lines, width) uint8 line array, NULs deleted."""
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def table_blocks(values, block_lines, nan_text="nan"):
    """The CSV text of the (lines, fields) float64 array values, one line
    per row, its '%.9g' fields separated by commas and each nan written
    as nan_text, block_lines lines per block."""
    lines, fields = values.shape
    ends = np.tile(np.frombuffer(b"," * (fields - 1) + b"\n", dtype=np.uint8), block_lines)
    for start in range(0, lines, block_lines):
        block = values[start:start + block_lines].ravel()
        yield _text(records(block, ends[:len(block)], nan_text))


def grid_blocks(values, block_lines, outer, inner, nan_text="nan"):
    """The CSV text of the (len(outer), len(inner)) float64 array values,
    read without a copy: row r's value c is written on the line
    '%.9g,%.9g,%.9g' of outer[r], inner[c] and itself, each nan as
    nan_text.

    The cells are split into ceil(cells / block_lines) blocks of whole
    rows, each of ceil(rows / blocks) rows and at least one, so a block
    may exceed block_lines by less than one row. Every block is written
    into one line buffer, allocated once: the inner texts once per sweep
    and the outer texts once per block, both broadcast, and the block's
    records with one copy. records() builds them slot-major: writing each
    slot straight into the lines measured slower.
    """
    outer, inner = _keys(outer), _keys(inner)
    height, width = values.shape
    step = -(-height // -(-values.size // block_lines))    # rows per block
    key, field = outer.shape[1], outer.shape[1] + inner.shape[1]
    buffer = np.empty((step, width, field + FIELD), dtype=np.uint8)
    buffer[:, :, key:field] = inner
    newline = np.uint8(ord("\n"))
    for r in range(0, height, step):
        block = values[r:r + step]
        lines = buffer[:len(block)]
        lines[:, :, :key] = outer[r:r + step, None]
        lines.reshape(block.size, -1)[:, field:] = records(block.ravel(), newline, nan_text)
        yield _text(lines)
