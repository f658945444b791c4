"""The CSV text of float64 blocks, exactly as ``"%.17g"`` writes each value,
in one numpy pass per block instead of one dtoa call per value."""

from __future__ import annotations

import numpy as np

# 10**k is an exact double for k <= 22; the Veltkamp constant splits a double
# into two halves of 26 bits
_U64 = np.uint64
_VELTKAMP = 2.0 ** 27 + 1.0
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_ASCII_ZEROS = _U64(0x3030303030303030)             # "00000000"
_BYTE = np.arange(32)
# column p of word w: the bytes of a 24-byte string below byte p, and a "."
# at byte p (rows are the string's three little-endian words)
_BELOW = np.where(_BYTE[:24] < _BYTE[:24, None], 0xFF, 0).astype(
    np.uint8).view("<u8").T.copy()
_DOT = np.where(_BYTE[:24] == _BYTE[:24, None], ord("."), 0).astype(
    np.uint8).view("<u8").T.copy()
# row r < 25 keeps the first r bytes of a 32-byte slot and its separator
# (byte 28), row 25 + r also the exponent (bytes 24-27): 0xFF bytes in the
# slot's four little-endian words
_KEEP = (_BYTE < np.arange(25)[:, None]) | (_BYTE == 28)
_KEEP = np.concatenate([_KEEP, _KEEP | ((_BYTE >= 24) & (_BYTE < 28))])
_KEEP = np.where(_KEEP, 0xFF, 0).astype(np.uint8).view("<u8")


def _digits8(x: np.ndarray) -> np.ndarray:
    """The eight ASCII digits of each ``x < 10**8``, the first in the lowest
    byte: four-, two- and one-digit lanes split in place (SWAR)."""
    hi = x // _U64(10000)
    x = hi | ((x - hi * _U64(10000)) << _U64(32))
    hi = ((x * _U64(5243)) >> _U64(19)) & _U64(0x7F0000007F)     # n // 100
    x = hi | ((x - hi * _U64(100)) << _U64(16))
    hi = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # n // 10
    return hi | ((x - hi * _U64(10)) << _U64(8)) | _ASCII_ZEROS


def _trailing_zero_digits(digits: np.ndarray) -> np.ndarray:
    """The number of trailing "0"s among the eight ASCII digits of each word:
    once the "0"s are cleared, its zero bytes above the highest set bit (the
    float conversion keeps that bit, as no byte is above 9)."""
    return (64 - np.frexp((digits ^ _ASCII_ZEROS).astype(float))[1]) >> 3


def _times_pow10(a: np.ndarray, q: np.ndarray) -> tuple:
    """``hi + lo == a * 10**q`` exactly: Dekker's product of doubles."""
    a_hi = _VELTKAMP * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI.take(q), _POW10_LO.take(q)
    hi = a * _POW10.take(q)
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def csv_lines(block: np.ndarray, order: np.ndarray) -> bytes:
    """Rows of a C-contiguous float64 block as CSV text: each value exactly
    as ``"%.17g"`` gives it, "," between values and "\\n" after each row.
    Row r's values are ``block[r, order]``, so a column that ``order``
    repeats is formatted once.

    Values with 1e-6 < |v| < 1e16 are formatted here.  Their 17 significant
    digits are the integer nearest (ties to even) to |v| * 10**(16 - x), x
    the decimal exponent, which a Dekker product gives without rounding
    error; an estimate of x that this product refutes is corrected.  The
    layout follows %g: fixed notation for x >= -4, d.ddde-0x below, trailing
    zeros and a bare point dropped.  Every other value (zeros, subnormals,
    nan, inf, |v| <= 1e-6 or >= 1e16) goes through ``"%.17g"`` itself.  Each
    value fills a 32-byte slot (text, exponent, separator) whose unused
    bytes are zeroed; the output's slots are gathered from them in
    ``order``, and the zero bytes are deleted.
    """
    n = block.size
    values = block.ravel()
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e16)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)      # at most one off
    np.minimum(np.maximum(x, -6, out=x), 15, out=x)
    hi, lo = _times_pow10(a, 16 - x)
    # the estimates this product refutes; elsewhere 1e16 < hi + lo < 1e17
    off = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if off.size:
        h, l = hi[off], lo[off]
        x[off] += (h > 1e17) | ((h == 1e17) & (l >= 0))
        x[off] -= (h < 1e16) | ((h == 1e16) & (l < 0))
        hi[off], lo[off] = _times_pow10(a[off], 16 - x[off])
    # hi >= 1e16 > 2**53 is an even integer, so rint(lo) rounds ties to even;
    # no double rounds up to 10**17 here (the candidates, the largest double
    # below each power of ten, are in the tests)
    d = hi.astype(_U64) + np.rint(lo).astype(np.int64).astype(_U64)
    lead = d // _U64(10 ** 16)
    d -= lead * _U64(10 ** 16)
    high = d // _U64(10 ** 8)           # np.divmod of uint64 is ~7x slower
    first, last = digits = _digits8(np.array([high, d - high * _U64(10 ** 8)]))
    zeros_first, zeros = _trailing_zero_digits(digits)
    zeros += (zeros == 8) * zeros_first

    # the text: sh bytes of "-" (if negative) and leading "0"s (fixed
    # notation below 1), the 17 digits, a "." inserted at byte p; it ends
    # after the last significant digit, or at p if no fraction is left
    neg = np.signbit(values)
    sci = x < -4
    sh = np.where(sci, 0, np.maximum(-x, 0)) + neg
    text = np.empty((3, n), _U64)       # little-endian words of the text
    text[0] = (lead | _U64(ord("0"))) | (first << _U64(8))
    text[1] = (first >> _U64(56)) | (last << _U64(8))
    text[2] = last >> _U64(56)
    bits = (8 * sh).astype(_U64)
    carry = (text[:2] >> _U64(1)) >> (_U64(63) - bits)   # no shift by 64
    text <<= bits
    text[1:] |= carry
    # "-" and "0"s into the bytes shifted in ("0" | digit is that digit)
    text[0] |= np.where(neg, _U64(0x303030303030302D), _ASCII_ZEROS)
    p = neg + np.maximum(x, 0) + 1
    used = sh + 17 - zeros
    keep = np.where(used <= p, p, used + 1)     # the length of the text
    below = _BELOW.take(p, axis=1)
    after = text & ~below
    text &= below
    text |= _DOT.take(p, axis=1)
    after[2] = after[2] << _U64(8) | after[1] >> _U64(56)  # one byte up
    after[1] = after[1] << _U64(8) | after[0] >> _U64(56)
    after[0] <<= _U64(8)
    # one row per slot (the gather below copies 32 contiguous bytes a value):
    # the text, then "e-0", the exponent's digit and "," in the fourth word
    slot = np.empty((n, 4), "<u8")
    np.bitwise_or(text, after, out=slot.T[:3])
    slot[:, 3] = ((ord("0") - x).astype(_U64) << _U64(24)) | _U64(0x2C00302D65)
    keep += 25 * sci

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = (b"%.17g\0" * slow.size
                 % tuple(values[slow].tolist())).split(b"\0")[:-1]
        slot[slow, :3] = np.frombuffer(
            b"".join(t.ljust(24, b"\0") for t in texts),
            "<u8").reshape(-1, 3)
        keep[slow] = [len(t) for t in texts]
    slot &= _KEEP.take(keep, axis=0)    # no kept byte is 0
    at = (np.arange(0, n, block.shape[1])[:, None] + order).ravel()
    canvas = slot.take(at, axis=0).view(np.uint8)
    canvas[len(order) - 1::len(order), 28] = ord("\n")
    return canvas.tobytes().translate(None, b"\0")
