"""Decimal text of doubles, a whole array at a time: the shortest that
round-trips, for CSV, and two fixed places, for SVG.

``csv_blocks(columns)`` renders each finite double exactly as Python's
``repr(float)`` does, and lays the rows of the columns out as CSV lines, a
block of whole rows of at most ``CSV_BLOCK`` values at a time, as ASCII
bytes.  It runs in numpy only, on whole blocks.

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
exponent digits.  Each value is written into one fixed row of six uint64
words that holds every byte any layout needs: the first word comes from a
table indexed by the lead digit, the four words of digit places 1..16 from
a table of dotted quads, and the last from a table indexed by ``X``, with
the bytes its form does not use already zero.  In the first five words,
the bytes a value's (form, sign, digit count) does not use are zeroed by
one column of a keep table, and the zeros of the whole block are squeezed
out at once.

Workspace.  A formatter allocates one buffer, for its largest block, and
every block runs through it: each step writes into it with a ufunc's
``out=``, ``np.take(..., out=, mode="clip")`` or ``np.copyto(...,
where=)``, so a full block allocates nothing of its size but its text.  The
rows are held a word at a time, word ``w`` of every row in one array, so
that each table lookup writes a contiguous array; one transposing copy
lays the block's rows out.  Nine uint64 registers are reused as their
values die, and the words hold the columns of ``g`` until the text is
written (see ``_Workspace``).

Points.  ``polylines(px, py)`` writes every SVG polyline of a figure in
one pass, each as ``f"{x:.2f},{y:.2f}"`` writes its points, joined by
spaces.  It takes the coordinates ``write_svg`` draws, all in its canvas:
``0 <= v < FIXED2_LIMIT``, which one comparison of the top 12 bits checks.
Any other coordinate (negative, -0.0 included, NaN, inf, or 2^13 or more)
raises ValueError before any text is made.  A coordinate v = c 2^-s is
rounded as ``format(v, ".2f")`` rounds it: the integer 100 c (below 2^60)
is shifted right by s, half to even on the exact remainder, with s from a
table indexed by the exponent.  Each coordinate has one row of two uint32
words, both table lookups: the integer part 0..9999, its leading zeros
zero bytes; ``.``, the two decimals and the separator.  An x coordinate's
row ends in ``,``, a y coordinate's in a space, a polyline's last in a
newline; the zeros of the whole figure are squeezed out at once, and the
text is split per polyline after.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["CSV_BLOCK", "FIXED2_LIMIT", "csv_blocks", "polylines"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK52 = _U64(2**52 - 1)
_MASK63 = _U64(2**63 - 1)
_EXP_MASK = _U64(0x7FF)
_U0, _U1, _U2, _U4, _U7, _U10, _U40 = map(_U64, (0, 1, 2, 4, 7, 10, 40))
_U32, _U52, _U63 = map(_U64, (32, 52, 63))
_ROUNDS_UP = _U64(0b11001000)  # bit x: x = 4 (s & 1) + (vb & 3) rounds vb / 4 up, half to even
_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) at q = -1074 and q = 971
# the int64 steps of the exponents q, k and h
_Q_BIAS, _K_BASE = np.int64(1075), np.int64(_K_MIN)
_LOG10_2, _LOG10_4_3 = np.int64(661_971_961_083), np.int64(274_743_187_321)  # / 2^41
_NEG_LOG2_10 = np.int64(-913_124_641_741)  # / 2^38
_I2, _I38, _I41, _I52, _I63 = map(np.int64, (2, 38, 41, 52, 63))
_ZERO_INDEX = np.int64(-_K_MIN)  # k - _K_MIN at k = 0, where zero's "0.0" is
# the int64 steps of the text: indices into the tables
_NEG17, _TEN16 = np.int64(-17), np.int64(10**16)
_QUAD_PLACES = tuple(map(np.int64, (10**12, 10**8, 10**4)))

#: Bytes of a value's fixed row, a superset of every layout, in six
#: little-endian uint64 words: a zero byte, the sign, "0.000" and digit
#: place 0; the digit places 1..16, each after a candidate '.', in four
#: words of four places; "e+-", three exponent digits, the separator and a
#: zero byte.
_SIGN, _ZEROS, _D0, _E, _EXP, _SEP = 1, 2, 7, 40, 43, 46
_WORDS = 6
_FORMS = 24  # positional X = -4..15, then e+XX, e+XXX, e-XX, e-XXX
_X_MIN, _X_MAX = _K_MIN, _K_MAX + 16
_POW10 = 10 ** np.arange(18, dtype=_U64)
_NEXT_POW10 = _POW10[1:].copy()  # 10^(m+1) at m
_SCALE = _POW10[16::-1].copy()  # 10^(16-m) at m: m + 1 digits to 17 places
_NEWLINE = np.uint8(ord("\n"))


def _digit(place):
    """Byte of digit place ``place`` in the row; its candidate '.' is the byte before."""
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


@cache
def _pow2_digits():
    """``floor(log10(2^e))`` at the biased exponent ``e + 1023`` of a double
    ``2^e <= d < 2^(e+1)``, for ``0 <= e < 64``; 0 below, where only d = 0 is."""
    table = np.zeros(1023 + 64, dtype=np.int64)
    table[1023:] = [len(str(2**e)) - 1 for e in range(64)]
    table.flags.writeable = False
    return table


#: Values per formatted CSV block: a block is whole rows, copied from the
#: columns into the one ``_Workspace`` a formatter allocates, so the full
#: table is never copied and a block allocates no buffer but its text.
#: Larger blocks spread the fixed cost of a block, about 190 numpy calls;
#: the sweep from 8192 to 32768 in BENCH_35.json levels off from 12288.
#: At 16384 the workspace is about 2 MB (124 bytes a value).
CSV_BLOCK = 16384


class _Workspace:
    """The buffers of one formatter, for blocks of up to ``size`` values.

    ``regs`` holds nine uint64 registers, reused as their values die; a
    block's values come in as doubles in the last one.  ``text`` holds the
    block's fixed rows a word at a time, word ``w`` of every row in
    ``text[w]``; until the digits are known its first five words hold the
    five columns of ``g``.  The keep words are taken into ``regs[:5]``,
    dead by then.  ``flags`` holds four byte masks.
    """

    def __init__(self, size):
        # One allocation: with the registers and the text allocated apart,
        # glibc handed their memory back after each CSV and the next one
        # faulted it in again (about 240 minor faults a preset write).
        buffer = np.empty((9 + _WORDS) * 8 * size + 4 * size, dtype=np.uint8)
        words, flags = np.split(buffer, [(9 + _WORDS) * 8 * size])
        words = words.view(_U64).reshape(9 + _WORDS, size)
        self.regs, self.text = words[:9], words[9:]
        self.values = self.regs[8].view(np.float64)
        self.flags = flags.reshape(4, size)


def _mulhi(a_hi, a_lo, b_hi, b_lo, out, tmp):
    """``out`` <- the high 64 bits of the product of ``a_hi 2^32 + a_lo`` and
    ``b_hi 2^32 + b_lo``, for ``a < 2^63`` and ``b < 2^60``: the middle sum then
    stays below 2^64.  ``tmp`` is scratch, and may be ``b_lo``."""
    np.multiply(a_lo, b_lo, out=out)
    np.right_shift(out, _U32, out=out)
    np.multiply(a_hi, b_lo, out=tmp)
    np.add(out, tmp, out=out)
    np.multiply(a_lo, b_hi, out=tmp)
    np.add(out, tmp, out=out)
    np.right_shift(out, _U32, out=out)
    np.multiply(a_hi, b_hi, out=tmp)
    np.add(out, tmp, out=out)


def _rop(cp, g, hi, lo, x1, out):
    """``out`` <- rop(cp g 2^-127), the round to odd, for ``cp < 2^60``; ``cp``,
    ``hi``, ``lo`` and ``x1`` are scratch."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    np.right_shift(cp, _U32, out=hi)
    np.bitwise_and(cp, _MASK32, out=lo)
    y0 = np.multiply(cp, g1, out=cp)  # low 64 bits
    _mulhi(g0_hi, g0_lo, hi, lo, out=x1, tmp=out)
    _mulhi(g1_hi, g1_lo, hi, lo, out=out, tmp=lo)  # y1
    z = np.right_shift(y0, _U1, out=y0)
    np.add(z, x1, out=z)
    np.right_shift(z, _U63, out=x1)
    np.add(out, x1, out=out)
    np.bitwise_and(z, _MASK63, out=z)
    np.add(z, _MASK63, out=z)
    np.right_shift(z, _U63, out=z)
    np.bitwise_or(out, z, out=out)


def _shortest(ws, n):
    """Decimal digits ``d`` and index ``k - _K_MIN`` with ``d 10^k`` the
    shortest, closest decimal that rounds to each finite double of
    ``ws.values[:n]``; zero gets d = 0 and k = 0.  Returns the registers of
    d and of the index."""
    r0, r1, r2, r3, r4, r5, r6, r7, bits = ws.regs[:, :n]
    irregular, other, zero, up = ws.flags[:, :n].view(bool)
    g = ws.text[:5, :n]
    bq = np.right_shift(bits, _U52, out=r0)
    np.bitwise_and(bq, _EXP_MASK, out=bq)
    c = np.bitwise_and(bits, _MASK52, out=r1)  # t, so far
    np.equal(c, _U0, out=irregular)
    np.greater(bq, _U1, out=other)
    np.logical_and(irregular, other, out=irregular)  # c = 2^52 above the smallest normal binade
    normal = np.minimum(bq, _U1, out=r3)
    np.left_shift(normal, _U52, out=normal)
    np.bitwise_or(c, normal, out=c)
    np.equal(c, _U0, out=zero)
    q = np.maximum(bq, _U1, out=bq).view(np.int64)
    np.subtract(q, _Q_BIAS, out=q)
    k = np.multiply(q, _LOG10_2, out=r2.view(np.int64))
    np.subtract(k, np.multiply(irregular, _LOG10_4_3, out=r3.view(np.int64)), out=k)
    np.right_shift(k, _I41, out=k)
    h = np.multiply(k, _NEG_LOG2_10, out=r3.view(np.int64))
    np.right_shift(h, _I38, out=h)
    np.add(h, q, out=h)
    np.add(h, _I2, out=h)
    index = np.subtract(k, _K_BASE, out=k)
    for column, out in zip(_g_table(), g):
        np.take(column, index, out=out, mode="clip")
    # cb, cbl and cbr shifted by h (< 2^60), rounded to odd in three passes
    cb = np.left_shift(c, _U2, out=r0)
    cbl = np.subtract(cb, _U2, out=r1)
    np.add(cbl, irregular, out=cbl)
    cbr = np.add(cb, _U2, out=r4)
    for cp in (cb, cbl, cbr):
        np.left_shift(cp, h.view(_U64), out=cp)
    vb, vbl, vbr = r7, r0, r1
    _rop(cb, g, r3, r5, r6, out=vb)
    _rop(cbl, g, r3, r5, r6, out=vbl)
    _rop(cbr, g, r3, r5, r6, out=vbr)
    odd = np.bitwise_and(bits, _U1, out=r3)  # c & 1
    np.add(vbl, odd, out=vbl)
    np.subtract(vbr, odd, out=vbr)
    # s or t = s + 1: the one in the interval if just one is, else vb / 4 rounded half to even
    s = np.right_shift(vb, _U2, out=r4)
    one_in, t_in = irregular, other  # irregular is spent
    bound = np.left_shift(s, _U2, out=r3)
    np.less_equal(vbl, bound, out=one_in)
    np.add(bound, _U4, out=bound)
    np.less_equal(bound, vbr, out=t_in)
    np.not_equal(one_in, t_in, out=one_in)
    np.bitwise_and(vb, _U7, out=vb)  # the parity of s, then the two bits below it
    np.right_shift(_ROUNDS_UP, vb, out=vb)
    np.bitwise_and(vb, _U1, out=up.view(np.uint8))
    np.bitwise_xor(t_in, up, out=t_in)
    np.bitwise_and(t_in, one_in, out=t_in)
    np.bitwise_xor(up, t_in, out=up)
    d = np.add(s, up, out=r5)
    # sp10 or tp10 = sp10 + 10 in place of that, if just one of them is in the interval
    sp10 = np.floor_divide(s, _U10, out=s)
    np.multiply(sp10, _U10, out=sp10)
    np.left_shift(sp10, _U2, out=bound)
    np.less_equal(vbl, bound, out=one_in)
    np.add(bound, _U40, out=bound)
    np.less_equal(bound, vbr, out=t_in)
    np.not_equal(one_in, t_in, out=one_in)
    step = np.multiply(t_in, _U10, out=bound)
    np.add(step, sp10, out=step)
    np.subtract(step, d, out=step)
    np.multiply(step, one_in, out=step)
    np.add(d, step, out=d)
    np.copyto(d, _U0, where=zero)
    np.copyto(index, _ZERO_INDEX, where=zero)
    return d, index


def _format(ws, n, cols):
    """The CSV lines of the first ``n`` values of ``ws.values``, ``cols`` to a
    line, as ASCII bytes."""
    d, index = _shortest(ws, n)
    r0, r1, r2, r3, _, _, r6, r7, bits = ws.regs[:, :n].view(np.int64)
    more, digits = ws.flags[:2, :n]
    # m + 1 digits in d, from the binary exponent of d and one comparison
    np.copyto(r7.view(np.float64), d)
    np.right_shift(r7, _I52, out=r7)
    m = np.take(_pow2_digits(), r7, out=r6, mode="clip")
    np.take(_NEXT_POW10, m, out=r0.view(_U64), mode="clip")
    np.less_equal(r0.view(_U64), d, out=more.view(bool))
    np.add(m, more, out=m)
    at = np.add(index, m, out=index)  # the decimal exponent X, as X - _X_MIN
    # the digits left-aligned in the 17 places (below 2^63), zero as "000..."
    scale = np.take(_SCALE, m, out=r0.view(_U64), mode="clip")
    rest = np.multiply(d, scale, out=d).view(np.int64)
    lead = np.floor_divide(rest, _TEN16, out=r7)
    np.subtract(rest, np.multiply(lead, _TEN16, out=r0), out=rest)
    head, tail, form_rows = _ends()
    text = ws.text[:, :n]
    np.take(head, lead, out=text[0], mode="clip")
    np.take(tail, at, out=text[5], mode="clip")
    text[5].view(np.uint8).reshape(n, 8)[cols - 1 :: cols, _SEP - _E] = _NEWLINE
    sign = np.right_shift(bits, _I63, out=r0)
    np.multiply(sign, _NEG17, out=sign)
    key = np.take(form_rows, at, out=bits, mode="clip")
    np.add(key, sign, out=key)
    # places 1..16 as four dotted quads; the digit count from the last place in use
    quads = (r0, r1, r2, r3)
    _quads(rest, quads)
    dotted, last_place = _dotted_quads()
    for j, quad in enumerate(quads):
        np.take(dotted, quad, out=text[1 + j], mode="clip")
        np.take(last_place[j], quad, out=more if j else digits, mode="clip")
        if j:
            np.maximum(digits, more, out=digits)
    np.add(key, digits, out=key)
    keep = np.take(_keep_table(), key, axis=1, out=ws.regs[:5, :n], mode="clip")
    np.bitwise_and(text[:5], keep, out=text[:5])
    return text.T.tobytes().translate(None, b"\0")


@cache
def _digit_text():
    """The ASCII digits of 0000..9999, each as one little-endian uint32, and
    of 000..999 as rows of three bytes."""
    places = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    ascii_ = (places + ord("0")).astype(np.uint8)
    ascii_.flags.writeable = False
    return ascii_.view("<u4").reshape(-1), ascii_[:1000, 1:]


def _quads(x, out):
    """Write the four 4-digit groups of the 16 digits of each int64
    ``0 <= x < 10^16`` into the four int64 arrays of ``out``, most
    significant first; ``x`` is overwritten."""
    for quad, place in zip(out, _QUAD_PLACES):
        np.floor_divide(x, place, out=quad)
        np.multiply(quad, place, out=out[3])
        np.subtract(x, out[3], out=x)
    np.copyto(out[3], x)


@cache
def _dotted_quads():
    """``.d.d.d.d`` for the digits of 0000..9999, each as one little-endian
    uint64, and, for each of the four quads of places 1..16, the last place
    in use by each of 0000..9999 (0 for 0000)."""
    digits = _digit_text()[0].view(np.uint8).reshape(-1, 4)
    quads = np.full((10_000, 8), ord("."), dtype=np.uint8)
    quads[:, 1::2] = digits
    zeros = np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    last_place = np.array([4 * j + 4 - zeros for j in range(4)], dtype=np.uint8)
    last_place[:, 0] = 0
    quads.flags.writeable = False
    last_place.flags.writeable = False
    return quads.view("<u8").reshape(-1), last_place


@cache
def _ends():
    """The first and the last word of a row, and the keep words' columns.
    The first: ``-0.000`` and digit place 0, for each digit.  The last, for
    each decimal exponent ``X`` at ``X - _X_MIN``: ``e``, the sign of ``X``
    and its two or three digits if its form has an exponent, and ``,``;
    the column of its form's keep words is at the same index."""
    head = np.zeros((10, 8), dtype=np.uint8)
    head[:, _SIGN:_D0] = np.frombuffer(b"-0.000", dtype=np.uint8)
    head[:, _D0] = np.arange(ord("0"), ord("9") + 1)
    X = np.arange(_X_MIN, _X_MAX + 1)
    positional = (X >= -4) & (X < 16)
    tail = np.zeros((X.size, 8), dtype=np.uint8)
    tail[~positional, 0] = ord("e")
    tail[~positional & (X >= 0), _EXP - _E - 2] = ord("+")
    tail[~positional & (X < 0), _EXP - _E - 1] = ord("-")
    tail[~positional, _EXP - _E : _SEP - _E] = _digit_text()[1][np.abs(X[~positional])]
    tail[~positional & (np.abs(X) < 100), _EXP - _E] = 0
    tail[:, _SEP - _E] = ord(",")
    form = np.where(positional, X + 4, 20 + 2 * (X < 0) + (np.abs(X) >= 100))
    tables = head.view("<u8").reshape(-1), tail.view("<u8").reshape(-1), form * 2 * 17
    for table in tables:
        table.flags.writeable = False
    return tables


@cache
def _keep_table():
    """Which bytes of the first five words of the row a value keeps, as
    words of 0x00 and 0xFF bytes: ``table[:, i]`` for (form, sign, digit
    count) at ``i = (form * 2 + sign) * 17 + digit count - 1``."""
    table = np.zeros((_FORMS, 2, 17, _E), dtype=bool)
    table[:, 1, :, _SIGN] = True
    for form in range(_FORMS):
        for n in range(1, 18):
            keep = table[form, :, n - 1]
            keep[:, _digit(np.arange(n))] = True
            if form < 20:
                X = form - 4
                if X >= 0:  # a place past the digits holds '0'
                    keep[:, _digit(np.arange(X + 2))] = True
                    keep[:, _digit(X + 1) - 1] = True
                else:
                    keep[:, _ZEROS : _ZEROS + 1 - X] = True  # '0.' and -X - 1 zeros
            else:
                keep[:, _digit(1) - 1] = n > 1
    table = (table.reshape(-1, _E) * np.uint8(0xFF)).view("<u8").T.copy()
    table.flags.writeable = False
    return table


def csv_blocks(columns):
    """The CSV lines of the rows of ``columns``, 1-D and 2-D float arrays of
    one length, as an iterator of ASCII bytes, each the lines of whole rows of
    at most ``CSV_BLOCK`` values (one row if a row is longer).  Each value is
    written as ``repr(float)`` writes it.  Raises ValueError, before any
    block, if a value is not finite."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    columns = [c[:, None] if c.ndim == 1 else c for c in columns]
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError("cannot write a value that is not finite")
    width = sum(c.shape[1] for c in columns)
    if width == 0:
        raise ValueError("cannot write a row without values")
    return _blocks(columns, width, max(1, CSV_BLOCK // width))


def _blocks(columns, width, rows):
    total = len(columns[0])
    ws = _Workspace(min(rows, total) * width)
    for start in range(0, total, rows):
        part = [c[start : start + rows] for c in columns]
        n = len(part[0])
        np.concatenate(part, axis=1, out=ws.values[: n * width].reshape(n, width))
        yield _format(ws, n * width, width)


#: Above every coordinate ``write_svg`` draws, x in [45, 1215] and y in
#: [30, 255]; below it, a coordinate written to two places has at most four
#: integer digits, the most an SVG point's row holds.
FIXED2_LIMIT = 2.0**13
_TOP_LIMIT = 1023 + 13  # sign and exponent bits of FIXED2_LIMIT; no lower for a double not in [0, it)
_U100, _I100 = _U64(100), np.int64(100)
_IMPLICIT = _U64(2**52)


@cache
def _fixed2_tables():
    """Tables of the fixed-point rows, the first two indexed by the biased
    exponent ``e`` of a double in [0, FIXED2_LIMIT).

    For ``v = c 2^-s`` with ``c`` its significand, implicit bit set (also for
    zero and subnormals, which round to 0 all the same): ``s`` (at most 63,
    from which 100 c < 2^60 rounds to 0) and ``2^(s-1) - 1``.  Then the row's
    words: integer places 1..4 of each of 0..9999, its leading zeros zero
    bytes; and ``.``, the decimals and ``,`` for each of 00..99."""
    shift = np.minimum(1075 - np.maximum(np.arange(_TOP_LIMIT), 1), 63)
    half = (2 ** (shift - 1) - 1).astype(_U64)
    whole = _digit_text()[0].view(np.uint8).reshape(-1, 4)
    whole = whole * (np.arange(10_000)[:, None] >= [1000, 100, 10, 0])
    point = np.zeros((100, 4), dtype=np.uint8)
    point[:, 0], point[:, 3] = ord("."), ord(",")
    point[:, 1:3] = _digit_text()[1][:100, 1:]
    tables = (shift.astype(_U64), half, whole.astype(np.uint8).view("<u4").reshape(-1),
              point.view("<u4").reshape(-1))
    for table in tables:
        table.flags.writeable = False
    return tables


def polylines(px, py) -> list:
    """For each row of the 2-D float array ``py``, with ``px`` broadcast to its
    shape, ``" ".join(f"{x:.2f},{y:.2f}" ...)`` over the row's points, of which
    there is at least one; see the module docstring.  Raises ValueError,
    before any text is made, if a coordinate is not in [0, FIXED2_LIMIT)."""
    points = np.empty(np.shape(py) + (2,))
    points[..., 0] = px
    points[..., 1] = py
    n = points.size
    bits = points.reshape(-1).view(_U64)
    shift, half, whole_text, point_text = _fixed2_tables()
    r0, r1, r2, r3 = np.empty((4, n), dtype=_U64)
    top = np.right_shift(bits, _U52, out=r0).view(np.int64)
    if top.max() >= _TOP_LIMIT:
        raise ValueError(f"cannot write a coordinate outside [0, {FIXED2_LIMIT:g})")
    c = np.bitwise_and(bits, _MASK52, out=r1)
    np.bitwise_or(c, _IMPLICIT, out=c)
    np.multiply(c, _U100, out=c)
    # hundredths = 100 c 2^-s, rounded half to even: + 2^(s-1) - 1, + 1 if bit s is set
    s = np.take(shift, top, out=r2, mode="clip")
    odd = np.right_shift(c, s, out=r3)
    np.bitwise_and(odd, _U1, out=odd)
    np.add(c, odd, out=c)
    np.add(c, np.take(half, top, out=r3, mode="clip"), out=c)
    hundredths = np.right_shift(c, s, out=c).view(np.int64)
    whole, decimals = np.divmod(hundredths, _I100, out=(r0.view(np.int64), r2.view(np.int64)))
    text = np.empty((n, 2), dtype=np.uint32)
    np.take(whole_text, whole, out=text[:, 0], mode="clip")
    np.take(point_text, decimals, out=text[:, 1], mode="clip")
    separators = text.view(np.uint8).reshape(len(points), -1, 16)[:, :, -1]  # a point's two rows
    separators[:] = ord(" ")
    separators[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
