"""The CSV text of float64 blocks, exactly as ``"%.17g"`` writes each value,
in one numpy pass per block instead of one dtoa call per value, into the
buffers of a ``Workspace``.  A column that repeats another bit for bit
over a block's rows, as most do once the inverters synchronize and share
their current, takes that one's text instead of being formatted again."""

from __future__ import annotations

import numpy as np

# 10**k is an exact double for k <= 22; the Veltkamp constant splits a double
# into two halves of 26 bits.  The uint64 arithmetic below takes positive
# Python ints, which keep the array's dtype at less cost per call than a
# numpy scalar built there
_U64 = np.uint64
_VELTKAMP = 2.0 ** 27 + 1.0
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_ASCII_ZEROS = _U64(0x3030303030303030)             # "00000000"
# the first word of a slot, under the digits shifted in after it: the
# separator "," then "0"s; xor-ing _MINUS turns its second byte into "-"
_LEAD = _U64(0x303030303030302C)
_MINUS = _U64(0x1D00)
_SLOT = 24                          # bytes a value's text is laid out in
_BYTE = np.arange(_SLOT)
# column p of word w: the bytes of a slot below byte p, and a "." at byte p
# (rows are the slot's three little-endian words)
_BELOW = np.where(_BYTE < _BYTE[:, None], 0xFF, 0).astype(
    np.uint8).view("<u8").T.copy()
_DOT = np.where(_BYTE == _BYTE[:, None], ord("."), 0).astype(
    np.uint8).view("<u8").T.copy()
# the exponents of the values below 1e-4, by decimal exponent + 6
_EXPONENT = np.frombuffer(b"e-06e-05", "V4")
# an odd multiplier that mixes a column's last row into its key, so that
# columns constant over a call do not all share one
_MIX = _U64(0x9E3779B97F4A7C15)


class Workspace:
    """Every buffer of ``csv_lines`` for blocks of up to ``rows`` rows of
    ``columns`` distinct columns, laid out in the column order ``order``.

    The caller writes the block into ``block``; a call writes only into the
    other buffers, so it allocates nothing that grows with the block, and its
    text is a view of ``text`` that the next call overwrites.  A plain class,
    as the engine's workspace is.
    """

    __slots__ = ("block", "width", "at", "f", "i", "b", "u", "exp2",
                 "slot", "slot4", "slot24", "gathered", "starts", "lengths",
                 "offsets", "text", "text24")

    def __init__(self, rows: int, columns: int, order: np.ndarray):
        n = rows * columns
        self.block = np.empty((rows, columns))
        self.width = len(order)
        # output slot j of a call holds value at[j] of the block
        self.at = (np.arange(0, n, columns)[:, None] + order).ravel()
        m = len(self.at)
        # the intermediates, flat: a call of k values views the first r*k
        # elements of one as r rows of k, so that every row is contiguous
        self.f = np.empty(8 * n)
        self.i = np.empty(7 * n, np.intp)
        self.b = np.empty(3 * n, bool)
        self.u = np.empty(11 * n, _U64)
        self.exp2 = np.empty(2 * n, np.int32)
        # value v's text in bytes 24*v .. 24*v + 23, written as three words
        self.slot = np.empty((n, 3), _U64)
        self.slot4 = np.ndarray((_SLOT * n - 3,), "V4", self.slot,
                                strides=(1,))
        self.slot24 = self.slot.view("V24").reshape(n)
        # the output's slots, and before them a call's distinct values
        self.gathered = np.empty(max(m, -(-n // 3)), "V24")
        self.starts = self.gathered[:m].view(np.uint8).reshape(m, _SLOT)[
            ::self.width, 0]                # the separator before each row
        self.lengths = np.empty(m, np.intp)
        self.offsets = np.zeros(m + 1, np.intp)
        # output slot j is written at text[offsets[j]:][:24], over the
        # unused bytes of slot j - 1; a text takes up to 25 bytes with its
        # separator, and a "\n" follows the last
        self.text = np.empty((_SLOT + 1) * m + 1, np.uint8)
        self.text24 = np.ndarray((len(self.text) - _SLOT + 1,), "V24",
                                 self.text, strides=(1,))


def _digits8(x: np.ndarray, hi: np.ndarray) -> None:
    """Each ``x < 10**8`` into its eight decimal digits in place, as byte
    values 0-9, the first in the lowest byte: four-, two- and one-digit
    lanes split in place (SWAR), ``hi`` the scratch.  Each split writes
    lo << s | hi for x = hi*b + lo as (x << s) - hi*((b << s) - 1)."""
    np.floor_divide(x, 10000, out=hi)
    x <<= 32
    hi *= (10000 << 32) - 1
    x -= hi
    np.multiply(x, 5243, out=hi)                        # n // 100
    hi >>= 19
    hi &= 0x7F0000007F
    x <<= 16
    hi *= (100 << 16) - 1
    x -= hi
    np.multiply(x, 103, out=hi)                         # n // 10
    hi >>= 10
    hi &= 0x000F000F000F000F
    x <<= 8
    hi *= (10 << 8) - 1
    x -= hi


def _times_pow10(a: np.ndarray, q: np.ndarray, hi: np.ndarray,
                 lo: np.ndarray, scratch) -> None:
    """``hi + lo == a * 10**q`` exactly: Dekker's product of doubles, with
    the four arrays of ``scratch``."""
    a_hi, a_lo, p_hi, p_lo = scratch
    np.multiply(a, _VELTKAMP, out=a_hi)
    np.subtract(a_hi, a, out=a_lo)
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    _POW10.take(q, out=hi, mode="clip")
    hi *= a
    _POW10_HI.take(q, out=p_hi, mode="clip")
    _POW10_LO.take(q, out=p_lo, mode="clip")
    np.multiply(a_hi, p_hi, out=lo)
    lo -= hi
    a_hi *= p_lo
    lo += a_hi
    p_hi *= a_lo
    lo += p_hi
    a_lo *= p_lo
    lo += a_lo


def _distinct(w: Workspace, rows: int
              ) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """``(values, columns, order, at)`` of a call on the first ``rows``
    rows of ``w.block``: the values it formats, as rows of ``columns``;
    the column of those that each output column shows; and the value that
    each output slot shows.

    A column equal bit for bit in every row to the first column with its
    key, a hash of its first and last rows, is left out and shown from
    that one.  With no two keys equal, or no such column, the values are
    the block's own and ``order`` and ``at`` those of ``w``.  Else the
    values are written into ``w.gathered`` and ``at`` into ``w.offsets``
    (by way of ``w.lengths``), which the call overwrites only after it has
    read them.
    """
    block = w.block[:rows]
    columns = block.shape[1]
    plain = (block.reshape(-1), columns, w.at[:w.width],
             w.at[:rows * w.width])
    bits = block.view(_U64)
    key = bits[-1] * _MIX
    key ^= bits[0]
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    first = np.empty(columns, bool)     # the first column with its key
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if first.all():
        return plain
    same = ~first
    members = by_key[same]
    reps = by_key[np.maximum.accumulate(
        np.where(first, np.arange(columns), 0))[same]]
    # the rows of each member and of its representative, in buffers the
    # call has not written yet
    n = len(members)
    u = w.u[:2 * rows * n].reshape(2, rows, n)
    np.take(bits, members, axis=1, out=u[0], mode="clip")
    np.take(bits, reps, axis=1, out=u[1], mode="clip")
    equal = np.equal(u[0], u[1], out=w.b[:rows * n].reshape(rows, n)).all(0)
    if not equal.any():
        return plain
    shown = np.arange(columns)          # the column shown for each column
    shown[members[equal]] = reps[equal]
    kept = shown == np.arange(columns)
    distinct = kept.nonzero()[0]
    d = len(distinct)
    order = (np.cumsum(kept) - 1)[shown][w.at[:w.width]]
    values = w.gathered.view(np.float64)[:rows * d].reshape(rows, d)
    np.take(block, distinct, axis=1, out=values, mode="clip")
    # row r's slots show values r*d + order; copyto broadcasts without the
    # block-sized buffer that a broadcasting ufunc allocates
    m = rows * w.width
    at, starts = w.offsets[1:m + 1], w.lengths[:m]
    np.copyto(at.reshape(rows, w.width), order)
    np.copyto(starts.reshape(rows, w.width),
              np.arange(0, rows * d, d)[:, None])
    at += starts
    return values.reshape(-1), d, order, at


def csv_lines(w: Workspace, rows: int) -> np.ndarray:
    """The first ``rows`` rows of ``w.block`` as CSV text: each value exactly
    as ``"%.17g"`` gives it, "," between values and "\\n" after each row.
    Row r's values are ``block[r, order]``, so a column that ``order``
    repeats is formatted once, and so is a column equal bit for bit in
    every row of the call to the first column with its key (``_distinct``).
    The key, from a column's first and last rows, finds such columns with
    one sort; a call whose keys all differ formats the block as it stands,
    and every other merge is checked over every row, so 0.0 and -0.0 stay
    apart, as do nans of other payloads.  The text is a view of ``w``,
    valid until its next call.

    Values with 1e-6 < |v| < 1e16 are formatted here.  Their 17 significant
    digits are the integer nearest (ties to even) to |v| * 10**(16 - x), x
    the decimal exponent, which a Dekker product gives without rounding
    error; an estimate of x that this product refutes is corrected.  The
    layout follows %g: fixed notation for x >= -4, d.ddde-0x below, trailing
    zeros and a bare point dropped.  Every other value (zeros, subnormals,
    nan, inf, |v| <= 1e-6 or >= 1e16) goes through ``"%.17g"`` itself.

    Each value is laid out in a 24-byte slot: the separator, then its text;
    the bytes after the text are left as they are.  The output's slots are
    gathered from them in ``order``, and each is written where the text
    before it ends, over the unused bytes of the slot before: so no byte is
    deleted and no slot is masked.
    """
    values, columns, order, at = _distinct(w, rows)
    k = len(values)
    f = w.f[:8 * k].reshape(8, k)
    a, t, hi, lo, *scratch = f
    mask, neg, sci = w.b[:3 * k].reshape(3, k)
    # no ufunc below mixes dtypes: numpy would cast through a buffer
    x, q, sh, p, used, keep, minus = w.i[:7 * k].reshape(7, k)
    exp2 = w.exp2[:2 * k].reshape(2, k)
    u = w.u[:11 * k].reshape(11, k)
    digits, d, bits, rbits, lead, carry, text = (
        u[0:2], u[2], u[3], u[4], u[5], u[6:8], u[8:11])

    np.abs(values, out=a)
    np.greater(a, 1e-6, out=mask)
    np.less(a, 1e16, out=neg)
    mask &= neg
    np.logical_not(mask, out=mask)              # nan is slow too
    slow = mask.nonzero()[0]
    a[slow] = 1.0
    np.log10(a, out=t)
    np.floor(t, out=t)
    np.copyto(x, t, casting="unsafe")           # at most one off
    np.minimum(x, 15, out=x)
    np.maximum(x, -6, out=x)
    np.subtract(16, x, out=q)
    _times_pow10(a, q, hi, lo, scratch)
    # the estimates this product refutes; elsewhere 1e16 < hi + lo < 1e17
    np.less_equal(hi, 1e16, out=mask)
    np.greater_equal(hi, 1e17, out=neg)
    mask |= neg
    off = mask.nonzero()[0]
    if off.size:
        h, l = hi[off], lo[off]
        x[off] += (h > 1e17) | ((h == 1e17) & (l >= 0))
        x[off] -= (h < 1e16) | ((h == 1e16) & (l < 0))
        h, l, *sub = np.empty((6, off.size))
        _times_pow10(a[off], 16 - x[off], h, l, sub)
        hi[off], lo[off] = h, l
    # hi >= 1e16 > 2**53 is an even integer, so rint(lo) rounds ties to even;
    # no double rounds up to 10**17 here (the candidates, the largest double
    # below each power of ten, are in the tests)
    np.copyto(d, hi, casting="unsafe")
    np.rint(lo, out=lo)
    np.copyto(q, lo, casting="unsafe")
    d += q.view(_U64)
    np.floor_divide(d, 10 ** 16, out=lead)
    np.multiply(lead, 10 ** 16, out=bits)
    d -= bits
    np.floor_divide(d, 10 ** 8, out=digits[0])  # np.divmod: ~7x slower
    np.multiply(digits[0], 10 ** 8, out=bits)
    np.subtract(d, bits, out=digits[1])
    _digits8(digits, carry)
    # trailing zero digits: a word's zero bytes above its highest set bit
    # (the float conversion keeps that bit, as no byte is above 9)
    float_digits = f[:2]
    np.copyto(float_digits, digits, casting="unsafe")
    np.frexp(float_digits, out=(float_digits, exp2))
    np.subtract(64, exp2, out=exp2)
    exp2 >>= 3
    zeros_first, zeros = exp2
    np.not_equal(zeros, 8, out=mask)
    np.copyto(zeros_first, 0, where=mask)
    zeros += zeros_first

    # the text: the separator, "-" (if negative) and leading "0"s (fixed
    # notation below 1), sh bytes in all, the 17 digits, a "." inserted at
    # byte p; it ends after the last significant digit, or at p if no
    # fraction is left
    first, last = digits
    np.left_shift(first, 8, out=text[0])
    text[0] |= lead
    np.right_shift(first, 56, out=text[1])
    np.left_shift(last, 8, out=text[2])
    text[1] |= text[2]
    np.right_shift(last, 56, out=text[2])
    text |= _ASCII_ZEROS
    np.signbit(values, out=neg)
    np.copyto(minus, neg)
    np.less(x, -4, out=sci)
    np.negative(x, out=sh)
    np.maximum(sh, 0, out=sh)
    np.copyto(sh, 0, where=sci)
    sh += minus
    sh += 1
    np.multiply(sh, 8, out=bits.view(np.intp))
    np.subtract(64, bits, out=rbits)
    np.right_shift(text[:2], rbits, out=carry)
    text <<= bits
    text[1:] |= carry
    # "," "-" and "0"s into the bytes shifted in ("0" | digit is that digit)
    np.multiply(minus.view(_U64), _MINUS, out=lead)
    lead ^= _LEAD
    text[0] |= lead
    np.maximum(x, 0, out=p)
    p += minus
    p += 2
    np.copyto(used, zeros)
    np.subtract(sh, used, out=used)
    used += 17
    np.add(used, 1, out=keep)               # the length of the slot's text
    np.less_equal(used, p, out=mask)
    np.copyto(keep, p, where=mask)
    # digits, d, bits, rbits and lead are spent
    below, after = u[0:3], u[3:6]
    np.take(_BELOW, p, axis=1, out=below, mode="clip")
    np.invert(below, out=after)
    after &= text
    text &= below
    text |= np.take(_DOT, p, axis=1, out=below, mode="clip")
    np.right_shift(after[:2], 56, out=carry)  # the bytes from p,
    after <<= 8                               # one byte up
    after[1:] |= carry
    np.bitwise_or(text, after, out=w.slot[:k].T)
    # "e-0x" after the text below 1e-4
    small = sci.nonzero()[0]
    if small.size:
        w.slot4[_SLOT * small + keep[small]] = _EXPONENT[x[small] + 6]
        keep[small] += 4

    long = {}
    if slow.size:
        texts = (b"%.17g\0" * slow.size
                 % tuple(values[slow].tolist())).split(b"\0")[:-1]
        w.slot.view(np.uint8).reshape(-1, _SLOT)[slow, 1:] = np.frombuffer(
            b"".join(s[:_SLOT - 1].ljust(_SLOT - 1) for s in texts),
            np.uint8).reshape(-1, _SLOT - 1)
        keep[slow] = [len(s) + 1 for s in texts]
        # a text of 24 bytes ends after its slot: its last byte is written
        # into the output after the slots
        long = {v: s[-1] for v, s in zip(slow.tolist(), texts)
                if len(s) == _SLOT}

    m = rows * w.width
    np.take(w.slot24, at, out=w.gathered[:m], mode="clip")
    w.starts[:rows] = ord("\n")
    lengths = np.take(keep, at, out=w.lengths[:m], mode="clip")
    offsets = w.offsets[:m + 1]
    np.cumsum(lengths, out=offsets[1:])
    w.text24[offsets[:m]] = w.gathered[:m]
    end = offsets[m]
    for v, byte in long.items():            # in each column showing it
        row, column = divmod(v, columns)
        for j in np.flatnonzero(order == column).tolist():
            w.text[offsets[row * w.width + j + 1] - 1] = byte
    w.text[end] = ord("\n")
    return w.text[1:end + 1]
