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
exponent digits.  Each value is written into one fixed row that holds
every byte any layout needs; the bytes its (sign, digit count, form) does
not use are zeroed by one row of a keep table, and the zeros of the whole
block are squeezed out at once.
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

#: Columns of a value's fixed row, a superset of every layout: the sign,
#: "0.000", digit place 0, then a candidate '.' before each of the digit
#: places 1..16, "e+-", three exponent digits and the separator.
_SIGN, _ZEROS, _D0, _E, _EXP, _SEP = 0, 1, 6, 39, 42, 45
_ROW = 46
_TAIL = _ROW - 8  # the last eight bytes, digit place 16 to the separator
_FORMS = 24  # positional X = -4..15, then e+XX, e+XXX, e-XX, e-XXX
_X_MIN, _X_MAX = _K_MIN, _K_MAX + 16
_POW10 = 10 ** np.arange(18, dtype=_U64)


def _digit(place):
    """Column of digit place ``place``; its candidate '.' is the column before."""
    return _D0 + 2 * place


@cache
def _g_table():
    """``g = floor(10^-k / 2^r) + 1`` for k in [-324, 292], with ``r`` chosen so
    that ``2^125 <= 10^-k / 2^r < 2^126``, as five uint64 columns: ``g1 = g >> 63``
    whole, then the 32-bit limbs of ``g1`` and of ``g0 = g mod 2^63``."""
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
        limbs.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
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
    g1, g1_hi, g1_lo, g0_hi, g0_lo = _g_table().take(k - _K_MIN, axis=1)
    out = c & _U64(1)
    cb = c << _U64(2)
    # rop(cp g 2^-127), the round to odd, for cp = cb, cbl and cbr shifted by h (< 2^60)
    cp = np.stack([cb, cb - np.where(irregular, _U64(1), _U64(2)), cb + _U64(2)]) << h
    cp_hi, cp_lo = cp >> _U64(32), cp & _MASK32
    x1 = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    y0 = g1 * cp  # low 64 bits
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


def _quads(x):
    """The four 4-digit groups of the 16 digits of each uint64 ``x < 10^16``,
    most significant first."""
    quads = []
    for place in (10**12, 10**8, 10**4):
        quads.append(x // _U64(place))
        x = x - quads[-1] * _U64(place)
    return quads + [x]


@cache
def _dotted_quads():
    """``.d.d.d.d`` for the digits of 0000..9999, each as one little-endian
    uint64, and the number of trailing zeros of each (4 for 0000)."""
    digits = _digit_text()[0].view(np.uint8).reshape(-1, 4)
    quads = np.full((10_000, 8), ord("."), dtype=np.uint8)
    quads[:, 1::2] = digits
    zeros = np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    zeros[0] = 4
    quads.flags.writeable = False
    return quads.view("<u8").reshape(-1), zeros.astype(np.uint8)


@cache
def _ends():
    """The first and the last eight bytes of a row, each as one little-endian
    uint64, and the forms.  The first: ``-0.000`` and digit place 0, for each
    digit.  The last: ``e+-``, the three digits of ``|X|`` and ``,``, for each
    decimal exponent ``X`` at ``X - _X_MIN``, whose form is at the same index.
    The dotted quads write over the column they share with each: the '.'
    before digit place 1 and digit place 16."""
    head = np.zeros((10, 8), dtype=np.uint8)
    head[:, :_D0] = np.frombuffer(b"-0.000", dtype=np.uint8)
    head[:, _D0] = np.arange(ord("0"), ord("9") + 1)
    X = np.arange(_X_MIN, _X_MAX + 1)
    tail = np.zeros((X.size, 8), dtype=np.uint8)
    tail[:, _E - _TAIL : _EXP - _TAIL] = np.frombuffer(b"e+-", dtype=np.uint8)
    tail[:, _EXP - _TAIL : _SEP - _TAIL] = _digit_text()[1][np.abs(X)]
    tail[:, _SEP - _TAIL] = ord(",")
    form = np.where((X >= -4) & (X < 16), X + 4, 20 + 2 * (X < 0) + (np.abs(X) >= 100))
    tables = head.view("<u8").reshape(-1), tail.view("<u8").reshape(-1), form
    for table in tables:
        table.flags.writeable = False
    return tables


@cache
def _keep_table():
    """Which bytes of the fixed row a value keeps, one row per (sign, digit
    count, form) at ``(sign * 17 + digit count - 1) * _FORMS + form``."""
    table = np.zeros((2, 17, _FORMS, _ROW), dtype=bool)
    table[..., _SEP] = True
    table[1, ..., _SIGN] = True
    for n in range(1, 18):
        for form in range(_FORMS):
            keep = table[:, n - 1, form]
            if form < 20:
                X = form - 4
                if X >= 0:  # a place past the digits holds '0'
                    keep[:, _digit(np.arange(max(n, X + 2)))] = True
                    keep[:, _digit(X + 1) - 1] = True
                else:
                    keep[:, _ZEROS : _ZEROS + 1 - X] = True  # '0.' and -X - 1 zeros
                    keep[:, _digit(np.arange(n))] = True
            else:
                negative_exp, three = divmod(form - 20, 2)
                keep[:, _digit(np.arange(n))] = True
                keep[:, _digit(1) - 1] = n > 1
                keep[:, _E] = keep[:, _E + 1 + negative_exp] = True
                keep[:, _EXP + 1 - three : _SEP] = True
    table = table.reshape(2 * 17 * _FORMS, _ROW)
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
    at = np.where(nonzero, k + length - 1, 0) - _X_MIN  # the decimal exponent, as an index of _ends()
    # the digits left-aligned in the 17 places, zero as "000...": place 0,
    # then places 1..16 as four dotted quads
    rest = np.where(nonzero, d * _POW10[17 - length], _U64(0))
    lead = rest // _U64(10**16)
    rest -= lead * _U64(10**16)
    head, tail, form = _ends()
    text = np.empty((bits.size, _ROW), dtype=np.uint8)
    text[:, _TAIL:].view("<u8")[:, 0] = tail.take(at)
    text[:, :8].view("<u8")[:, 0] = head.take(lead)
    text[cols - 1 :: cols, _SEP] = ord("\n")
    dotted, quad_zeros = _dotted_quads()
    quads = text[:, _D0 + 1 : _E].view("<u8")
    zeros = np.zeros(bits.size, dtype=np.uint8)  # trailing zeros of places 1..16
    for j, quad in enumerate(_quads(rest)):
        quads[:, j] = dotted.take(quad)
        zeros = quad_zeros.take(quad) + (quad == 0) * zeros
    key = (np.signbit(values.reshape(-1)) * 17 + 16 - zeros) * _FORMS + form.take(at)
    text *= _keep_table().take(key, axis=0)
    return text.tobytes().translate(None, b"\0").decode("ascii")
