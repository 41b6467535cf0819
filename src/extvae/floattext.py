"""float64 values as the bytes of Python's ``'%.17g' % x``, in numpy.

``render`` takes X = floor(log10 |x|), scales |x| by 10**(16 - X) in
double-double arithmetic (Dekker's exact product, 10**q as hi + lo) and rounds
it to the 17-digit integer N.  N's digits are looked up four at a time and
placed in three 64-bit words per value, where byte masks drop trailing zeros
and insert the point, the "0." and zeros of -4 <= X < 0, or the "e+XX" of
X < -4 or X > 16, as %g does; a zero is N = 0 at X = 0.  The scaled value is
known to about 1e-14, so a remainder within 1e-6 of 1/2 (every exact tie), a
non-finite value, a nonzero |x| outside [1e-250, 1e250], or an X that log10
guessed one off goes to Python's %.
"""

import numpy as np

WIDTH = 24                    # bytes of the longest text, "-1.2345678901234567e-308"
CHUNK = 1 << 12               # values per pass: about 1 MB of temporaries
_TIE = 0.5 - 1e-6
_SPLIT = 134217729.0          # 2**27 + 1, Dekker's splitter
_Q0, _X0 = 235, 260           # table rows of 10**0 and of the exponent 0


def _pow10(q: int) -> tuple[float, float]:
    """10**q as hi + lo, each rounded to nearest as int / int division rounds."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


# 10**q for q in -235..267, the scales of |x| in [1e-250, 1e250] and one beyond
_HI, _LO = np.array([_pow10(q) for q in range(-_Q0, 268)]).T
_HI_H = _SPLIT * _HI - (_SPLIT * _HI - _HI)          # hi's high 26 bits
_HI_L = _HI - _HI_H

# per 4-digit group g: its ASCII digits as one little-endian word, and how many
# run to its last nonzero one (-12 for 0000, so that N keeps at least 1 digit)
_g = np.arange(10000)
_D4 = (_g // 1000 | _g // 100 % 10 << 8 | _g // 10 % 10 << 16 | _g % 10 << 24
       | 0x30303030).astype(np.uint64)
_ND4 = np.select([_g % 10 > 0, _g % 100 > 0, _g % 1000 > 0, _g > 0], [4, 3, 2, 1], -12)

# Byte 0 of a value's 24 bytes holds its sign, and digit j starts at byte j + 1.
# Each table is (word, row).  _FIRST[k]: bytes 1..k.  _INS[code]: for code
# 1..17 a point at byte code + 1, for code 16 + m (m = 2..5) "0.000"[:m] at
# bytes 1..m.  _EXP[X + 260]: "e" and the exponent at bytes 19..23.
_j = np.arange(24)
_FIRST = np.where((_j >= 1) & (_j <= np.arange(25)[:, None]), 255, 0).astype(np.uint8)
_ins = np.zeros((22, 24), np.uint8)
_ins[_j[1:18], _j[2:19]] = ord(".")
for _m in range(2, 6):
    _ins[16 + _m, 1:_m + 1] = list(b"0.000"[:_m])
_FIRST, _INS = (np.ascontiguousarray(t.view("<u8").T) for t in (_FIRST, _ins))
_REST = ~_FIRST
_EXP = np.array([b"" if -4 <= x <= 16 else f"e{x:+03d}".encode()
                 for x in range(-_X0, _X0 + 1)], "S8").view("<u8") << np.uint64(24)


def render(values) -> np.ndarray:
    """Each value's text, its bytes in order among NULs: (n, WIDTH) uint8."""
    values = np.ravel(np.asarray(values, np.float64))
    out = np.empty((values.size, 3), "<u8")        # bytes in text order
    for lo in range(0, values.size, CHUNK):
        _render(values[lo:lo + CHUNK], out[lo:lo + CHUNK])
    return out.view(np.uint8)


def _render(v: np.ndarray, out: np.ndarray) -> None:
    a = np.abs(v)
    ok = (a >= 1e-250) & (a <= 1e250)               # False for 0, inf and nan
    a[~ok] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    i = (16 + _Q0) - x
    hi_h, hi_l = _HI_H[i], _HI_L[i]
    # a * 10**(16 - x) = p + r, p = fl(a * hi) an integer once it is >= 2**53
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    p = a * _HI[i]
    r = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * _LO[i]
    k = np.floor(r + 0.5)
    n = p.astype(np.int64) + k.astype(np.int64)
    # 1e16 <= p + r < 1e17 - 1/2: x was the exponent and N has 17 digits
    ok &= (n >= 10 ** 16 + (r < k)) & (n < 10 ** 17) & (np.abs(r - k) < _TIE)
    n[~ok], x[~ok] = 10 ** 16, 0
    zero = v == 0
    n[zero] = 0                 # N = 0 at X = 0 is laid out "0", signed "-0"
    ok |= zero

    d0 = n // 10 ** 16
    n -= d0 * 10 ** 16
    g12 = n // 10 ** 8
    n -= g12 * 10 ** 8
    g1, g3 = g12 // 10 ** 4, n // 10 ** 4
    g2, g4 = g12 - g1 * 10 ** 4, n - g3 * 10 ** 4
    nd = np.maximum(np.maximum(_ND4[g1] + 1, _ND4[g2] + 5),       # digits to keep
                    np.maximum(_ND4[g3] + 9, _ND4[g4] + 13))
    d2, d3, d4 = _D4[g2], _D4[g3], _D4[g4]
    words = ((d0.astype(np.uint64) + 48) << 8 | _D4[g1] << 16 | d2 << 48,
             d2 >> 16 | d3 << 16 | d4 << 48, d4 >> 16)

    fixed = (x >= -4) & (x <= 16)
    small = fixed & (x < 0)
    point = (fixed & (x >= 0)) * (x + 1) + ~fixed      # digits before the point
    shift = 1 - small * x                  # bytes the digits after it move by
    keep = np.maximum(nd, point)
    code = (nd > point) * point + small * (16 + shift)
    bits = (8 * shift).astype(np.uint64)
    carry = np.uint64(0)
    for j, w in enumerate(words):
        w = w & _FIRST[j][keep]
        moved = w << bits | carry
        carry = w >> (64 - bits)
        out[:, j] = w & _FIRST[j][point] | moved & _REST[j][point + shift] | _INS[j][code]
    out[:, 0] |= np.signbit(v) * np.uint64(ord("-"))
    out[:, 2] |= _EXP[x + _X0]

    slow = np.flatnonzero(~ok)
    if slow.size:
        out[slow] = np.array(["%.17g" % s for s in v[slow].tolist()],
                             f"S{WIDTH}").view("<u8").reshape(-1, 3)
