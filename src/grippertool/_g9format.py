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
written as the caller's nan text, by default "nan" as '%' writes it:
each slot row but the end is cleared at every nan and the text's byte
for that slot added there.

Every step works on whole slot rows of a block, in the narrowest integer
type that holds its values, so that a block takes few, cheap numpy
passes. X and n need to be right only where the fast path holds: every
other record is overwritten. n's nine digits come from three 3-digit
groups, n // 10**6, n // 10**3 and n, each less a thousand times the
one before. Each group's three digits come the same way from g // 100,
g // 10 and g, each less ten times the one before. Both steps run in
wrapping uint16 and uint8 arithmetic: the operands may wrap, but each
difference is a group below 1000 or a digit below 10, so it is exact.

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
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _exponent_digits(values):
    """(X, n, fast) for the float64 values: where fast holds, the decimal
    exponent (int8) and the nine-digit integer (uint32) of |value|'s
    '%.9g' rounding. fast holds only for finite nonzero values. Elsewhere
    X and n are whatever the steps leave, n at most 10**9. In place where
    it can: a block's float temporaries set the sweep's peak memory."""
    ax = np.abs(values)
    # nan and +-0 become 1e-100 and +-inf 1e10: outside fixed notation, so
    # never fast, and every X fits in int8
    np.fmax(ax, 1e-100, out=ax)
    np.fmin(ax, 1e10, out=ax)
    y = np.log10(ax)
    exp = np.floor(y, out=y).astype(np.int8)
    y = _POW10.take((np.int8(8) - exp).astype(np.intp), mode="clip", out=y)
    y *= ax
    n = np.rint(y, out=ax)
    y -= n
    fast = np.abs(y, out=y) != 0.5
    del y
    carry = n == 1e9
    exp += carry.view(np.int8)
    n[carry] = 1e8
    n = np.minimum(n, 1e9, out=n).astype(np.uint32)
    fast &= (exp + np.int8(4)).view(np.uint8) <= 12   # -4 <= X <= 8
    fast &= n - np.uint32(10**8) < np.uint32(9 * 10**8)   # 10**8 <= n < 10**9
    return exp, n, fast


def records(values, ends, nan_text="nan"):
    """(len(values), FIELD) uint8 records of the float64 values' '%.9g'
    texts (see the module docstring), with nan_text, of at most FIELD - 1
    ASCII characters, for each nan; ends is one byte per value, or one
    for all. The records are built slot by slot in a slot-major array, of
    which this returns the transposed view.

    The digits d0..d8 are rows of one (10, len(values)) array, the last
    row NUL, built from n's three digit groups. One boolean mask of the
    same shape is reused for each slot test: the digits kept (up to dX
    and up to the last nonzero one), the slots before the point, the
    slots after it and the point's own."""
    count = len(values)
    exp, n, fast = _exponent_digits(values)
    out = np.empty((FIELD, count), dtype=np.uint8)   # slot-major, transposed on return
    np.signbit(values, out=out[0].view(np.bool_))
    out[0] *= np.uint8(ord("-"))
    # the "0.000" of 0.d, 0.0d, 0.00d and 0.000d
    np.multiply((exp <= _PREFIX_EXP).view(np.uint8), _PREFIX, out=out[1:6])
    # the point's body slot: after dX, and past b9 (10) for a value below 1
    point = np.maximum(exp + np.int8(1), (exp < 0).view(np.int8) * np.int8(10))
    groups = np.empty((3, count), dtype=np.uint16)
    np.floor_divide(n, np.uint32(10**6), out=groups[0], casting="unsafe")
    np.floor_divide(n, np.uint32(10**3), out=groups[1], casting="unsafe")
    groups[2] = n
    del n
    groups[1:] -= groups[:-1] * np.uint16(1000)
    digits = np.empty((10, count), dtype=np.uint8)
    triples = digits[:9].reshape(3, 3, count)   # (group, digit of the group, value)
    np.floor_divide(groups, np.uint16(100), out=triples[:, 0], casting="unsafe")
    np.floor_divide(groups, np.uint16(10), out=triples[:, 1], casting="unsafe")
    triples[:, 2] = groups
    del groups
    triples[:, 1:] -= triples[:, :-1] * np.uint8(10)
    digits[9] = 0
    mask = np.empty((10, count), dtype=np.bool_)
    mask8 = mask.view(np.uint8)
    # keep the digits up to dX and up to the last nonzero digit, as ASCII;
    # the others are zeros and stay NUL
    np.not_equal(digits[:9], 0, out=mask[:9])
    mask8[:9] *= _SLOTS[:9].view(np.uint8)
    keep = np.maximum(exp, mask8[:9].max(axis=0).view(np.int8))
    np.less_equal(_SLOTS, keep, out=mask)
    mask8 *= np.uint8(ord("0"))
    digits += mask8
    # the digits before the point in place, those after it one slot on
    body = out[_BODY]
    np.less(_SLOTS, point, out=mask)
    np.multiply(digits, mask8, out=body)
    np.greater(_SLOTS[1:], point, out=mask[1:])
    digits[:-1] *= mask8[1:]
    body[1:] += digits[:-1]
    # the point, where a kept digit follows it (slot 10, none, elsewhere)
    np.equal(_SLOTS, np.maximum(point, (keep < point).view(np.int8) * np.int8(10)), out=mask)
    mask8 *= np.uint8(ord("."))
    body += mask8
    del digits, triples, mask, mask8
    out[-1] = ends
    nan = np.isnan(values)
    fast |= nan   # a nan's record is overwritten last
    if not fast.all():
        slow = np.flatnonzero(~fast)
        text = "%16.9g" * len(slow) % tuple(values[slow].tolist())
        out[:16, slow] = np.frombuffer(
            text.encode("ascii").translate(_SPACE_TO_NUL), dtype=np.uint8
        ).reshape(-1, 16).T
    if nan.any():
        text = np.frombuffer(nan_text.encode("ascii"), dtype=np.uint8)[:, None]
        out[:-1] *= (~nan).view(np.uint8)
        out[:len(text)] += text * nan.view(np.uint8)
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
