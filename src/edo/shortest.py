"""Shortest round-trip decimal text of doubles, a whole array at a time.

``csv_text(values)`` renders each finite double exactly as Python's
``repr(float)`` does, and lays the values of a ``(rows, cols)`` array out
as CSV lines.  It runs in numpy only, on whole columns.

Digits.  Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020; the digit kernel of the JDK's ``DoubleToDecimal``) finds, with
fixed-width integer arithmetic, the shortest decimal that reads back as
the same double and, among those, the closest to it; ties go to the even
digit string.  That is the digit string Python's ``repr`` prints.  The
JDK's ``s >= 100`` guard and its ``C_TINY`` rescaling of tiny subnormals
exist for Java's two-digit minimum and are left out: with them 5e-324
would print as 4.9e-324.  Every 64x64-bit high product is built from
32-bit limbs with every operand an ``np.uint64``, so the result does not
depend on numpy's rules for mixed integer types.

Layout.  Python's: positional for a decimal exponent ``X`` in
``-4 <= X < 16``, with ``.0`` on integers and ``0.000...`` before the
digits when ``X < 0``; otherwise ``d[.ddd]e±XX`` with at least two
exponent digits.  Each value's bytes are gathered from its digits through
one template per (sign, digit count, form).
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["csv_text"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK63 = _U64(2**63 - 1)
_C_MIN = _U64(2**52)
_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) at q = -1074 and q = 971

#: Columns of a value's source bytes: 17 digit places, the digits of |X|,
#: the constant bytes and the separator.
_DIGITS, _EXP, _ZERO, _DOT, _MINUS, _E, _PLUS, _PAD, _SEP = 0, 17, 20, 21, 22, 23, 24, 25, 26
_SOURCE_WIDTH = 27
_FORMS = 24  # positional X = -4..15, then e+XX, e+XXX, e-XX, e-XXX
_POW10 = 10 ** np.arange(18, dtype=_U64)


@cache
def _g_table():
    """``g = floor(10^-k / 2^r) + 1`` for k in [-324, 292], with ``r`` chosen so
    that ``2^125 <= 10^-k / 2^r < 2^126``; split into the 32-bit limbs of
    ``g1 = g >> 63`` and ``g0 = g mod 2^63`` as four uint64 columns."""
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = 10 ** max(-k, 0), 10 ** max(k, 0)
        # num / den / 2^r lies in (2^125, 2^127): one halving (r + 1) at most brings beta below 2^126
        r = num.bit_length() - den.bit_length() - 126
        beta = num // (den << r) if r >= 0 else (num << -r) // den
        if beta >= 2**126:
            beta >>= 1
        g = beta + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        limbs.append((g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    table = np.array(limbs, dtype=_U64).T.copy()
    table.flags.writeable = False
    return table


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of the product of ``a_hi 2^32 + a_lo`` and ``b_hi 2^32 + b_lo``,
    for ``a < 2^63`` and ``b < 2^60``: the middle sum then stays below 2^64."""
    mid = a_hi * b_lo + a_lo * b_hi + ((a_lo * b_lo) >> _U64(32))
    return a_hi * b_hi + (mid >> _U64(32))


def _shortest(bits):
    """Decimal digits ``d`` and exponent ``k`` with ``d 10^k`` the shortest,
    closest decimal that rounds to each nonzero finite double of ``bits``."""
    t = bits & _U64(2**52 - 1)
    bq = (bits >> _U64(52)) & _U64(0x7FF)
    normal = bq != 0
    c = np.where(normal, t | _C_MIN, t)
    q = np.where(normal, bq.astype(np.int64) - 1075, -1074)
    irregular = (t == 0) & (bq > 1)  # c = 2^52 above the smallest normal binade
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U64)
    g1_hi, g1_lo, g0_hi, g0_lo = _g_table().take(k - _K_MIN, axis=1)
    out = c & _U64(1)
    cb = c << _U64(2)
    # rop(cp g 2^-127), the round to odd, for cp = cb, cbl and cbr shifted by h (< 2^60)
    cp = np.stack([cb, cb - np.where(irregular, _U64(1), _U64(2)), cb + _U64(2)]) << h
    cp_hi, cp_lo = cp >> _U64(32), cp & _MASK32
    x1 = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    y0 = ((g1_hi << _U64(32)) | g1_lo) * cp  # low 64 bits
    y1 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    z = (y0 >> _U64(1)) + x1
    vb, vbl, vbr = (y1 + (z >> _U64(63))) | (((z & _MASK63) + _MASK63) >> _U64(63))
    vbl += out
    vbr -= out
    s = vb >> _U64(2)
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = tp10 << _U64(2) <= vbr
    t1 = s + _U64(1)
    uin = vbl <= s << _U64(2)
    win = t1 << _U64(2) <= vbr
    mid = (s + t1) << _U64(1)
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0)))
    d = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(take_s, s, t1))
    return d, k


@cache
def _digit_text():
    """The ASCII digits of 0000..9999, each as one little-endian uint32, and
    of 000..999 as rows of three bytes."""
    places = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    ascii_ = (places + ord("0")).astype(np.uint8)
    ascii_.flags.writeable = False
    return ascii_.view("<u4").reshape(-1), ascii_[:1000, 1:]


@cache
def _templates():
    """Source columns of a value's bytes, one row per (sign, digit count, form)
    at ``(sign * 17 + digit count - 1) * _FORMS + form``, padded with
    ``_PAD`` and ended by ``_SEP``."""
    width = 1 + 17 + 6 + 1  # sign, 17 digits, '.', 'e', sign, three exponent digits, separator
    table = np.full((2, 17, _FORMS, width), _PAD, dtype=np.intp)
    for neg in (0, 1):
        for n in range(1, 18):
            digits = [_DIGITS + j for j in range(n)]
            for form in range(_FORMS):
                cols = [_MINUS] if neg else []
                if form < 20:
                    X = form - 4
                    if X >= 0:  # a place past the digits holds '0'
                        cols += [_DIGITS + j for j in range(X + 1)] + [_DOT]
                        cols += [_DIGITS + j for j in range(X + 1, max(n, X + 2))]
                    else:
                        cols += [_ZERO, _DOT] + [_ZERO] * (-X - 1) + digits
                else:
                    negative_exp, three = divmod(form - 20, 2)
                    cols += digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
                    cols += [_E, _MINUS if negative_exp else _PLUS]
                    cols += [_EXP + j for j in range(1 - three, 3)]
                table[neg, n - 1, form, : len(cols)] = cols
                table[neg, n - 1, form, -1] = _SEP
    table = table.reshape(2 * 17 * _FORMS, width)
    table.flags.writeable = False
    return table


def csv_text(values) -> str:
    """The rows of the 2-D float array ``values`` as CSV lines, each value
    written as ``repr(float)`` writes it; raises ValueError on a value that
    is not finite."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows, cols = values.shape
    bits = values.reshape(-1).view(_U64)
    if not np.isfinite(values).all():
        raise ValueError("cannot write a value that is not finite")
    nonzero = (bits << _U64(1)) != 0
    d, k = _shortest(np.where(nonzero, bits, _U64(1)))  # zero: any finite stand-in
    length = np.searchsorted(_POW10[1:], d, side="right") + 1
    X = np.where(nonzero, k + length - 1, 0)
    source = np.empty((bits.size, _SOURCE_WIDTH), dtype=np.uint8)
    # the digits left-aligned in the 17 places, four at a time; zero as "000..."
    rest = np.where(nonzero, d * _POW10[17 - length], _U64(0))
    quad_text, triple_text = _digit_text()
    quads = np.empty((bits.size, 4), dtype="<u4")
    for j in range(3, -1, -1):
        quotient = rest // _U64(10_000)
        quads[:, j] = quad_text.take((rest - quotient * _U64(10_000)).astype(np.intp))
        rest = quotient
    source[:, _DIGITS] = rest + _U64(ord("0"))
    source[:, _DIGITS + 1 : _EXP] = quads.view(np.uint8)
    source[:, _EXP:_ZERO] = triple_text.take(np.abs(X), axis=0)
    source[:, _ZERO:_SEP] = np.frombuffer(b"0.-e+\0", dtype=np.uint8)
    source[:, _SEP] = ord(",")
    source[cols - 1 :: cols, _SEP] = ord("\n")
    significant = source[:, _DIGITS:_EXP] != ord("0")
    n = np.where(nonzero, 17 - np.argmax(significant[:, ::-1], axis=1), 1)
    form = np.where((X >= -4) & (X < 16), X + 4, 20 + 2 * (X < 0) + (np.abs(X) >= 100))
    key = ((bits >> _U64(63)).astype(np.intp) * 17 + n - 1) * _FORMS + form
    index = _templates().take(key, axis=0)
    index += np.arange(0, source.size, _SOURCE_WIDTH)[:, None]
    text = source.reshape(-1).take(index)
    return text[text != 0].tobytes().decode("ascii")
