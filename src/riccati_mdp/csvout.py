"""CSV output, column by column.

`cells` turns a column (floats, integers, booleans, text or bytes) into a
matrix of NUL-padded cells, one row per entry; `write_csv` joins blocks of such
columns into rows and drops the padding.  Integers are written in decimal,
booleans as true/false, and floats byte for byte as Python's `'%.17g' % x`,
so files parse back losslessly and reruns with one seed are byte-identical.

Floats are formatted in bulk.  A finite |x| in [1e-4, 1e14), where %g uses
fixed notation, takes an exact integer path: x = m * 2^(e - 53) is scaled
by 10^(16 - e10) as a 128-bit integer product, rounded half to even to 17
significant digits, and laid out from a table of 4-digit groups (Steele and
White, "How to print floating-point numbers accurately"; Adams, "Ryu: fast
float-to-string conversion").  Every other value (0, -0, nan, +-inf,
subnormals, |x| below 1e-4 or from 1e14 up), and every value of a column
shorter than _MIN_VECTOR, is formatted by Python, one value at a time,
inside the same call.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

_WORD = np.dtype("<u8")
_U = np.uint64
_LO32 = _U(0xFFFFFFFF)
# A float cell is 5 little-endian words, 40 bytes.  Word 0 holds the sign,
# the "0.000" prefix of a value below 1 and the leading digit; words 1-4
# hold the other 16 digits.  Each digit sits in a 2-byte slot whose second
# byte is '.' after the units digit and NUL elsewhere.
_FLOAT_WORDS = 5
# Rows formatted, and rows joined, at a time.  Whole 10 000-row gridpoints
# raised the scalar study's peak memory by about 1.8 MB.
_CHUNK = 4096
# The integer path costs about 80 us a call whatever its length, the time
# Python takes to format some 200 values one by one.
_MIN_VECTOR = 200


@functools.cache
def _digit_tables():
    """Lookup tables of the float formatter, built at its first call."""
    g = np.arange(10_000, dtype=_U)
    word, kept, nonzero_after = np.zeros_like(g), np.zeros_like(g), np.zeros(g.shape, bool)
    for i in (3, 2, 1, 0):
        digit = g // _U(10 ** (3 - i)) % _U(10)
        word |= (digit + _U(48)) << _U(16 * i)
        nonzero_after |= digit > 0
        kept |= nonzero_after * _U(0xFFFF << (16 * i))
    # Entry g: the 4-digit group g; entry 10 000 + g: the same with its
    # trailing zeros blanked.
    groups = np.concatenate([word, word & kept]).astype(_WORD)
    # Per decimal exponent e10 in [-4, 13], at index e10 + 4: word 0's
    # prefix, and for each digit word the '0's to restore in slots at or
    # before the units digit, which blanking must not remove.
    e10 = range(-4, 14)
    prefix = np.frombuffer(b"".join(
        b"\0" + (b"0.000"[:1 - v] if v < 0 else b"").ljust(7, b"\0") for v in e10), _WORD)
    zeros = np.array([int("0030" * c or "0", 16) for c in range(5)], _U)
    units = zeros[np.clip(np.array(e10) - np.arange(0, 16, 4)[:, None], 0, 4)].astype(_WORD)
    # The doubles nearest 10^-4 .. 10^14, none of which lies below its power.
    tens = np.array([float(f"1e{k}") for k in range(-4, 15)])
    return groups, prefix, units, tens, _U(5) ** np.arange(21, dtype=_U)


def _scaled(m, e, e10, pow5):
    """floor(m * 2^(e - 53) * 10^(16 - e10)), and whether it rounds up.

    The product m * 5^(16 - e10) is formed exactly as 128 bits from 32-bit
    limbs, low + (mid << 32) + (high << 64), and shifted right by
    s = 37 + e10 - e, which lies in [1, 63] on the fast range.  Rounding is
    half to even on the exact shifted-out bits.
    """
    f1 = pow5.take(16 - e10)
    f0 = f1 & _LO32
    f1 >>= _U(32)
    m0, m1 = m & _LO32, m >> _U(32)
    # In place, to keep the working set small: mid = m0 f1 + m1 f0 + (low >> 32),
    # high = m1 f1 + (mid >> 32), low = (low mod 2^32) + (mid << 32).
    low = m0 * f0
    m0 *= f1
    f0 *= m1
    mid = m0
    mid += f0
    mid += low >> _U(32)
    high = m1
    high *= f1
    high += mid >> _U(32)
    low &= _LO32
    low |= mid << _U(32)
    s = (37 + e10 - e).view(_U)
    q = high << (_U(64) - s)
    q |= low >> s
    half = _U(1) << (s - _U(1))
    low &= (half << _U(1)) - _U(1)
    return q, (low > half) | ((low == half) & ((q & _U(1)) == _U(1)))


def _float_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write the cell of `b"%.17g" % v` for each float64 v into the rows of
    `out`, an (n, _FLOAT_WORDS) array of words, byte for byte.

    Finite |v| in [1e-4, 1e14), where %g prints fixed notation, takes the
    exact integer path: 17 rounded significant digits q and the decimal
    exponent e10, then digits from a 4-digit table, trailing zeros blanked
    and the point placed.  Every other value (0, -0, nan, inf, subnormals,
    |v| outside the range), and every value of a call with fewer than
    _MIN_VECTOR, is formatted by Python, one value at a time.
    """
    text = out.view(f"S{_WORD.itemsize * _FLOAT_WORDS}")[:, 0]
    if x.size < _MIN_VECTOR:
        text[:] = [b"%.17g" % v for v in x.tolist()]
        return
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e14)
    slow = np.flatnonzero(~fast)
    text[slow] = [b"%.17g" % v for v in x[slow].tolist()]
    rows = np.flatnonzero(fast) if slow.size else slice(None)
    a = a[rows]
    groups, prefix, units, tens, pow5 = _digit_tables()
    # |v| = m * 2^(e - 53) with m in [2^52, 2^53), read off the bits.
    bits = a.view(_U)
    m = (bits & _U(2 ** 52 - 1)) | _U(2 ** 52)
    e = (bits >> _U(52)).view(np.int64) - 1022
    # e10 = floor(log10 |v|) is floor((e - 1) log10 2) or one more, and
    # exactly one more when |v| reaches the next power of ten: no double lies
    # between a power and the double nearest it, which is never below it.
    e10 = ((e - 1) * 78913) >> 18
    e10 += a >= tens.take(e10 + 5)
    q, up = _scaled(m, e, e10, pow5)
    # Rounding never carries q to 10^17: next to a power of ten the doubles
    # are more than 10 units of the 17th digit apart.
    q += up

    hi, lo = np.divmod(q, _U(10 ** 8))
    lead, hi = np.divmod(hi, _U(10 ** 8))
    g = (*np.divmod(hi, _U(10 ** 4)), *np.divmod(lo, _U(10 ** 4)))
    # A group's trailing zeros are blanked when every later group is zero.
    last = ((g[1] == 0) & (lo == 0), lo == 0, g[3] == 0, True)
    at = e10 + 4
    fixed = np.empty((a.size, _FLOAT_WORDS), _WORD) if slow.size else out
    fixed[:, 0] = prefix.take(at) | ((lead + _U(48)) << _U(48))
    fixed[:, 0] |= (x[rows].view(_U) >> _U(63)) * _U(45)
    for j in range(4):
        fixed[:, j + 1] = groups.take(g[j] + _U(10_000) * last[j]) | units[j].take(at)
    # The point goes after the units digit when a digit follows it.
    slots = fixed.view("<u2").ravel()
    dot = np.arange(3, slots.size, 4 * _FLOAT_WORDS) + np.maximum(e10, 0)
    slots[dot] |= ((slots[dot + 1] != 0) & (e10 >= 0)) * np.uint16(0x2E00)
    if slow.size:
        out[rows] = fixed


def cells(column) -> np.ndarray:
    """One NUL-padded CSV cell per entry of `column`, as an (n, width) uint8
    matrix: floats as `'%.17g' % v`, integers in decimal, booleans as
    true/false, text and bytes as they are."""
    a = np.asarray(column).ravel()
    if a.dtype.kind == "f":
        a = a.astype(np.float64, copy=False)
        out = np.empty((a.size, _FLOAT_WORDS), _WORD)
        for start in range(0, a.size, _CHUNK):
            _float_cells(a[start:start + _CHUNK], out[start:start + _CHUNK])
        return out.view(np.uint8)
    if a.dtype.kind == "b":
        a = np.where(a, b"true", b"false")
    elif a.dtype.kind in "iuU":
        a = a.astype(bytes)
    return a.view(np.uint8).reshape(a.size, a.dtype.itemsize)


def write_csv(path: Path, header: list, blocks) -> None:
    """Write `header`, then the rows of each block: a list of cell matrices
    from `cells`, one per column.  A one-row matrix repeats down its block.

    Rows are joined and stripped of their padding _CHUNK at a time.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for columns in blocks:
            n = max(len(c) for c in columns)
            # A repeated cell is stripped once, here, rather than per row.
            columns = [np.frombuffer(c.tobytes().translate(None, b"\0"), np.uint8)[None]
                       if len(c) == 1 else c for c in columns]
            width = sum(c.shape[1] + 1 for c in columns)
            for start in range(0, n, _CHUNK):
                stop = min(start + _CHUNK, n)
                buf = bytearray((stop - start) * width)
                rows = np.frombuffer(buf, np.uint8).reshape(stop - start, width)
                at = 0
                for c, sep in zip(columns, b"," * (len(columns) - 1) + b"\n"):
                    rows[:, at:at + c.shape[1]] = c[start:stop] if len(c) > 1 else c
                    rows[:, at + c.shape[1]] = sep
                    at += c.shape[1] + 1
                fh.write(buf.translate(None, b"\0"))
