"""CSV rows of float64 values spelled "%.17g" byte for byte, computed in numpy.

A finite x with 1e-280 <= |x| < 1e280 is spelled from its decimal exponent X
and D = round-half-even(|x|·10**(16 - X)), the 17-digit integer with
10**16 <= D < 10**17.  The product is formed exactly up to ~1e-14 units:
Dekker's exact two-product of |x| with hi, plus |x|·lo, where hi + lo is the
double-double of 10**p (Dekker, Numer. Math. 18, 1971).  So D is the correctly
rounded one unless the product lies within 1e-9 of a half.  Those values,
±0, nan, ±inf and |x| outside the range fall back to Python's formatter, one
whole row at a time.  The digits and the exponent are laid out by the %g rules
for precision 17: fixed notation for -4 <= X < 17, else d.ddd…e±XX; trailing
zeros and a bare point are dropped.

The kernel is its own module so that compiling cli.py stays as cheap as
before: bytecode is not always cached, and the compiler's memory counts in
the CLI's peak RSS.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK_ROWS = 2048  # rows per csv_rows call; a block's temporaries stay near 1 MiB
_X_MIN, _X_MAX = -282, 281  # the exponents tried for 1e-280 <= |x| < 1e280
_FIXED = 21  # layouts 0..20 spell -4 <= X <= 16 in fixed notation,
_LAYOUTS = _FIXED + 4  # layouts 21..24 spell e+XXX, e+XX, e-XXX, e-XX
# Each value gets a 32-byte field (four little-endian uint64 words) with fixed
# byte positions: the sign, a "0.000" prefix, digit 0 at byte 7 and digits
# 1..16 in words 1 and 2, "e+" and three exponent digits, and the separator.
# Its layout keeps some of these bytes and adds constant ones; the zero bytes
# left over are dropped when the block is compressed.
_SIGN, _PREFIX, _D0, _EXP, _SEP, _FIELD = 1, 2, 7, 25, 30, 32
_U64 = np.dtype("<u8")


def _veltkamp(a):
    """a = hi + lo with hi and lo of at most 26 significant bits (Dekker's split)."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _pow10(p: int) -> tuple[float, float, float, float]:
    """hi, hi's Veltkamp halves and lo of 10**p: hi is 10**p correctly rounded
    and lo the correctly rounded rest, so hi + lo is 10**p to about 106 bits."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den  # int / int is correctly rounded
    a, b = hi.as_integer_ratio()
    return (hi, *_veltkamp(hi), (num * b - a * den) / (den * b))


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """'%04d' of 0..9999 as 4-byte words; word 3 of a field holding '%03d' of |X|;
    and 17 × the layout of each X from _X_MIN."""
    pairs = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), np.uint8)
    quads = np.empty((100, 100, 4), dtype=np.uint8)
    quads[:, :, :2] = pairs.reshape(100, 1, 2)
    quads[:, :, 2:] = pairs.reshape(1, 100, 2)
    quads = quads.reshape(10000, 4)
    exponents = np.zeros((_X_MAX + 1, 8), dtype=np.uint8)
    exponents[:, _EXP % 8 + 2:_EXP % 8 + 5] = quads[:_X_MAX + 1, 1:]
    X = np.arange(_X_MIN, _X_MAX + 1)
    layout = np.where((X >= -4) & (X <= 16), X + 4, _FIXED + 2 * (X < 0) + (abs(X) < 100))
    return quads.view("<u4").ravel(), exponents.view(_U64).ravel(), 17 * layout


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field words per (sign, layout, kept digits m): the bytes to keep of the
    digits as placed (keep0) and as shifted one byte right (keep1), and the
    constant bytes."""
    keep0, keep1, const = np.zeros((3, 2, _LAYOUTS, 17, _FIELD), dtype=np.uint8)
    keep0[..., _SEP:] = 0xFF
    const[1, ..., _SIGN] = ord("-")
    for layout in range(_LAYOUTS):
        for m in range(1, 18):
            k0, k1, c = keep0[:, layout, m - 1], keep1[:, layout, m - 1], const[:, layout, m - 1]
            if layout < 4:  # X < 0: "0." and -X-1 zeros, then the m digits
                c[:, _PREFIX:_PREFIX + 5 - layout] = np.frombuffer(b"0.000"[:5 - layout], np.uint8)
                whole = m
            else:  # X + 1 digits before the point in fixed notation, one in e-notation
                whole = layout - 3 if layout < _FIXED else 1
            k0[:, _D0:_D0 + whole] = 0xFF
            if m > whole:  # the point, then the rest of the m digits one byte right
                c[:, _D0 + whole] = ord(".")
                k1[:, _D0 + whole + 1:_D0 + m + 1] = 0xFF
            if layout >= _FIXED:
                c[:, _EXP:_EXP + 2] = np.frombuffer(b"e-" if layout >= _FIXED + 2 else b"e+",
                                                    np.uint8)
                three = (layout - _FIXED) % 2 == 0
                k0[:, _EXP + 3 - three:_EXP + 5] = 0xFF
    return tuple(t.reshape(-1, _FIELD).view(_U64) for t in (keep0, keep1, const))


def _scaled(ax: np.ndarray, X: np.ndarray):
    """|x|·10**(16 - X) as ph + r: ph the rounded product of |x| and hi, r the rest."""
    top = int(X.max())
    table = np.array([_pow10(16 - e) for e in range(top, int(X.min()) - 1, -1)])
    hi, hi_hi, hi_lo, lo = np.take(table, top - X, axis=0).T
    ax_hi, ax_lo = _veltkamp(ax)
    ph = ax * hi
    pl = ((ax_hi * hi_hi - ph) + ax_hi * hi_lo + ax_lo * hi_hi) + ax_lo * hi_lo
    return ph, pl + ax * lo


def _decimal(ax: np.ndarray):
    """X and D = round-half-even(ax·10**(16 - X)) with 10**16 <= D < 10**17,
    and whether D is settled: the product is not within 1e-9 of a half."""
    # X from log10 is off by at most one; settle it on the unrounded product
    X = np.floor(np.log10(ax)).astype(np.int64)
    ph, r = _scaled(ax, X)
    up, down = (ph - 1e17) + r >= 0, (ph - 1e16) + r < 0
    fix = np.flatnonzero(up | down)
    if fix.size:
        X[fix] += up[fix].astype(np.int64) - down[fix]
        ph[fix], r[fix] = _scaled(ax[fix], X[fix])
    settled = np.abs(r - np.floor(r) - 0.5) >= 1e-9
    # ph is an even integer here, so rounding r rounds D half-even
    D = ph.astype(np.int64) + np.rint(r).astype(np.int64)
    carry = D == 10**17
    D[carry] = 10**16
    X += carry
    return D, X, settled


def _digit_words(D: np.ndarray):
    """Digit 0 of D as the top byte of a word, and digits 1..8 and 9..16 as two words."""
    top = D // 100000000
    low = (D - top * 100000000).astype(np.int32)
    top = top.astype(np.int32)
    d0 = top // 100000000
    top -= d0 * 100000000
    groups = np.empty((len(D), 4), dtype=np.int32)  # digits 1..16 in fours
    groups[:, 0] = top // 10000
    groups[:, 1] = top - groups[:, 0] * 10000
    groups[:, 2] = low // 10000
    groups[:, 3] = low - groups[:, 2] * 10000
    return (d0 + ord("0")).astype(_U64) << 56, np.take(_digit_tables()[0], groups).view(_U64)


def csv_rows(block: np.ndarray) -> np.ndarray:
    """The CSV rows of a float block as uint8, byte for byte ("%.17g,...,%.17g\\r\\n" % row)."""
    rows, ncols = block.shape
    x = block.ravel()
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax < 1e280)
    D, X, settled = _decimal(np.where(ok, ax, 1.0))
    ok &= settled  # near a tie: leave it to Python
    field = np.empty((rows, ncols, 4), dtype=_U64)
    words = field.reshape(-1, 4)
    words[:, 0], digits = _digit_words(D)
    words[:, 1] = digits[:, 0]
    words[:, 2] = digits[:, 1]
    _, exponents, layout17 = _digit_tables()
    sep = np.full(ncols, ord(",") << 8 * (_SEP % 8), dtype=_U64)
    sep[-1] = int.from_bytes(b"\r\n", "little") << 8 * (_SEP % 8)
    field[:, :, 3] = np.take(exponents, np.abs(X)).reshape(rows, ncols) | sep
    # trailing '0's of digits 1..16: the high bytes of their words equal to "0"
    digits ^= np.frombuffer(b"0" * 8, _U64)
    bits = np.frexp(digits.astype(float))[1]
    zeros = np.where(bits[:, 1] > 0, 8 - (bits[:, 1] + 7) // 8, 16 - (bits[:, 0] + 7) // 8)
    pattern = np.signbit(x) * (17 * _LAYOUTS) + np.take(layout17, X - _X_MIN) + (16 - zeros)
    keep0, keep1, const = _layouts()
    words = field.ravel()
    shifted = words << 8  # keep1 keeps nothing of word 0, which the next line
    shifted[1:] |= words[:-1] >> 56  # fills from the field before
    shifted &= np.take(keep1, pattern, axis=0).ravel()
    words &= np.take(keep0, pattern, axis=0).ravel()
    words |= shifted
    words |= np.take(const, pattern, axis=0).ravel()
    out = words.view(np.uint8).reshape(rows, -1)
    fallback = sorted(set((np.flatnonzero(~ok) // ncols).tolist()))
    if fallback:
        template = ",".join(["%.17g"] * ncols) + "\r\n"
        for i in fallback:
            text = (template % tuple(block[i].tolist())).encode()
            out[i] = 0
            out[i, :len(text)] = np.frombuffer(text, np.uint8)
    flat = out.ravel()
    return flat[flat != 0]
