"""Profile CSV and JSON report I/O.

A profile CSV holds the columns x, A0..A3, B0, B1, W at full (17 digit)
precision, so it round-trips exactly; JSON reports are written with sorted
keys so that equal payloads give equal bytes.

Every CSV of the package (``profile.csv``, ``inner.csv``) is written by
:func:`write_csv`, in array form, with the bytes of ``np.savetxt(...,
fmt="%.17g")`` by construction, not within a tolerance:

- Each double x with 1e-280 <= |x| < 1e16 is scaled to T = |x| 10**(16-k),
  k = floor(log10 |x|), by an exact Dekker two-product of |x| with the
  double-double power of ten H + L (Dekker, Numer. Math. 18, 1971).  T is
  then known to within 1e-13 (see ``_scaled``), so its 17-digit integer
  N = round(T) is exact wherever T's fraction lies farther than
  ``_TIE_BAND`` = 1e-9 from one half.  Where log10 put k one off, k is
  re-taken from floor(T); an N that rounds up to 1e17 is 1e16 at k + 1.
- Python's own ``'%.17g' %`` formats the rest, and its bytes are spliced
  in: zeros, subnormals, |x| < 1e-280 or >= 1e16, nan, inf, and the values
  inside the band, the 18th-digit ties and near-ties that ``%.17g`` rounds
  half to even.
- The digits are laid out ``g``-style from class tables: fixed notation for
  -4 <= exponent < 17, else ``d.ddde-XX``, trailing zeros and a bare point
  stripped.  Each block of ``CSV_BLOCK_ROWS`` rows is cut to its bytes by
  one boolean mask, so the memory does not grow with the row count.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np


CSV_BLOCK_ROWS = 256
"""Rows formatted per step of :func:`write_csv`, which bounds its memory.
A block of 256 rows of 8 columns is 2048 values: its characters, slot
thresholds and mask, (2048, 47) bytes each, take 96 kB apiece.  The
writer's traced peak is 0.37 MB on a 4001-row profile and does not grow
with the row count (the per-row ``%`` writer before it: 0.39 MB).  Each block
costs a fixed ~50 numpy calls: 128 rows take 20% longer per file, while
512 rows save about 5% for twice the peak."""

_TIE_BAND = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


def _veltkamp(a):
    """(hi, lo) with hi + lo == a exactly and each half of at most 26
    significant bits, so that a product of two halves is exact."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _pow10_tables():
    """10**p = H + L + d for p = 0..297 with |d| <= 2**-106 10**p, from
    Python ints; H split into its Veltkamp halves.  |x| >= 1e-280 gives
    p <= 297 and |x| < 1e16 gives p >= 0, also where floor(log10 |x|) is
    off by one before the re-take."""
    h, lo, ten_p = [], [], 1
    for _ in range(298):
        h.append(float(ten_p))
        lo.append(float(ten_p - int(h[-1])))
        ten_p *= 10
    h = np.array(h)
    return (h, *_veltkamp(h), np.array(lo))


_H, _H_HI, _H_LO, _L = _pow10_tables()

# Character slots of one formatted value, in output order: sign, "0.000",
# the 17 digits, ".", the 17 digits again, "e±XXX" and the separator.  With
# the digits laid out twice every class keeps whole runs of slots (the
# integer digits from the first copy, the fraction digits from the second),
# which the mask cuts out about twice as fast as single scattered slots.
_W = 47
_SIGN, _ZEROS, _INT, _DOT, _FRAC, _EXP = 0, 1, 6, 23, 24, 41
_NEVER, _ALWAYS = 127, -1
_K0 = 300  # offset of the exponent k in the class and exponent tables


def _thresholds():
    """(46, _W) int8: slot s of a value of class c is written iff its count
    of significant digits (trailing zeros stripped) exceeds ``[c, s]``.

    Class = cls + 23 * signbit, with cls = k + 4 for fixed notation
    (-4 <= k < 17), 21 for ``d.ddde±XX`` and 22 for ``d.ddde±XXX``."""
    thr = np.full((2, 23, _W), _NEVER, dtype=np.int8)
    thr[1, :, _SIGN] = _ALWAYS
    thr[:, :, _W - 1] = _ALWAYS                     # the separator
    digits = np.arange(17)
    for k in range(-4, 17):
        t = thr[:, k + 4]
        if k < 0:                                   # 0.000ddd
            t[:, _ZEROS:_ZEROS + 1 - k] = _ALWAYS
            t[:, _FRAC:_FRAC + 17] = digits
        else:                                       # ddd.ddd
            t[:, _INT:_INT + k + 1] = _ALWAYS
            t[:, _DOT] = k + 1
            t[:, _FRAC + k + 1:_FRAC + 17] = digits[k + 1:]
    t = thr[:, 21:23]                               # d.ddde±XX(X)
    t[..., _INT] = _ALWAYS
    t[..., _DOT] = 1
    t[..., _FRAC + 1:_FRAC + 17] = digits[1:]
    t[..., _EXP:_EXP + 5] = _ALWAYS
    t[:, 0, _EXP + 2] = _NEVER
    return thr.reshape(46, _W)


def _exponent_tables():
    """The class (without sign) and the four characters "±XXX" of each
    exponent k, at index k + _K0."""
    ks = range(-_K0, _K0)
    cls = np.array([k + 4 if -4 <= k < 17 else 22 if abs(k) >= 100 else 21 for k in ks])
    chars = "".join(f"{'-' if k < 0 else '+'}{abs(k):03d}" for k in ks)
    return cls, np.frombuffer(chars.encode(), np.uint32)


def _quad_tables():
    """For q = 0..9999: its four digit characters, and per group g = 0..3
    of the 16 digits after N's leading one, the count of significant
    digits up to the group's last nonzero digit (1 where q = 0), at
    index q + 10000 g."""
    chars = np.empty((10, 10, 10, 10, 4), np.uint8)
    digits = np.arange(48, 58, dtype=np.uint8)
    chars[..., 0] = digits[:, None, None, None]
    chars[..., 1] = digits[:, None, None]
    chars[..., 2] = digits[:, None]
    chars[..., 3] = digits
    last = np.zeros((10,) * 4, np.int8)     # 1 + index of the last nonzero digit
    last[1:] = 1
    last[:, 1:] = 2
    last[:, :, 1:] = 3
    last[:, :, :, 1:] = 4
    sig = last.ravel() + np.arange(1, 17, 4, dtype=np.int8)[:, None]
    sig[:, 0] = 1
    return chars.view(np.uint32).ravel(), sig.ravel()


_THR = _thresholds()
_CLS, _EXP_CHARS = _exponent_tables()
_QUAD_CHARS, _QUAD_SIG = _quad_tables()
_QUAD_OFF = np.arange(4) * 10000


def _scaled(a, p):
    """(F, N, near_tie) for T = a 10**p < 1e18: F = floor(T) and N = round(T)
    as int64, and where the fraction of T lies within ``_TIE_BAND`` of one
    half.

    a H = P + E exactly (Dekker's two-product), so T = P + E + a L up to
    |a d| <= 1.2e-14; the rounding of a L, of its sum with E and of the
    fraction add at most 6e-14 more.  That can misplace F only where T is
    within 1e-13 of an integer, which moves N by nothing; at the boundaries
    1e16 and 1e17, where F picks the exponent, T is an exact power of ten
    (E = L = 0) or at least 0.01 away, for every double near 10**k."""
    hi, lo = _veltkamp(a)
    P = a * _H[p]
    E = ((hi * _H_HI[p] - P) + hi * _H_LO[p] + lo * _H_HI[p]) + lo * _H_LO[p]
    Pi = np.rint(P)
    f = (P - Pi) + (E + a * _L[p])
    f0 = np.floor(f)
    d = f - f0
    floor_t = Pi.astype(np.int64) + f0.astype(np.int64)
    return floor_t, floor_t + (d > 0.5), np.abs(d - 0.5) < _TIE_BAND


def _decimal(v):
    """(k, N, slow) for the values v: the exponent and 17-digit integer of
    ``'%.17g' % |v|`` (N in [1e16, 1e17)) and the mask of the values that
    the fast path leaves to Python, where (k, N) are left meaningless."""
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e16)
    a = np.where(fast, a, 1.0)          # fallback values skip the Dekker split
    k = np.floor(np.log10(a)).astype(np.intp)
    floor_t, n, near_tie = _scaled(a, 16 - k)
    # log10 can put k one off near a power of ten: re-take k = floor(log10 |v|)
    off = (floor_t >= 10 ** 17).astype(np.intp) - (floor_t < 10 ** 16)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] += off[redo]
        _, n[redo], near_tie[redo] = _scaled(a[redo], 16 - k[redo])
    # 17 nines that round up to the next power of ten
    up = np.flatnonzero(n == 10 ** 17)
    n[up] = 10 ** 16
    k[up] += 1
    return k, n, ~fast | near_tie


def _format_block(v, out):
    """The bytes of ``'%.17g' %`` for each value of v, each followed by the
    separator already in ``out``'s last slot; ``out`` holds the template."""
    m = v.size
    k, n, slow = _decimal(v)
    # N = the leading digit, then four groups of four, each group's
    # characters and last nonzero digit read from a table by one index
    lead = n // 10 ** 16
    out[:, _INT] = out[:, _FRAC] = 48 + lead
    n -= lead * 10 ** 16
    hi = n // 10 ** 8
    n -= hi * 10 ** 8
    quads = np.empty((m, 4), np.intp)
    quads[:, 0] = hi // 10 ** 4
    quads[:, 1] = hi - quads[:, 0] * 10 ** 4
    quads[:, 2] = n // 10 ** 4
    quads[:, 3] = n - quads[:, 2] * 10 ** 4
    del lead, hi, n                     # the block's peak is the writer's
    out[:, _INT + 1:_INT + 17] = out[:, _FRAC + 1:_FRAC + 17] = \
        _QUAD_CHARS.take(quads).view(np.uint8)
    quads += _QUAD_OFF
    sig = _QUAD_SIG.take(quads)
    del quads
    nsig = np.maximum(np.maximum(sig[:, 0], sig[:, 1]), np.maximum(sig[:, 2], sig[:, 3]))
    k += _K0
    out[:, _EXP + 1:_EXP + 5] = _EXP_CHARS.take(k).view(np.uint8).reshape(m, 4)
    keep = nsig[:, None] > _THR.take(_CLS.take(k) + 23 * np.signbit(v), axis=0)

    slow = np.flatnonzero(slow)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype=f"S{_W - 1}")
        text = text.view(np.uint8).reshape(slow.size, _W - 1)
        out[slow, :-1] = text
        keep[slow, :-1] = text != 0
    return out.ravel()[keep.ravel()]


def write_csv(path: str, header: str, columns: list[np.ndarray]) -> None:
    """Write a header line and the columns (1-D arrays or 2-D column blocks
    of equal length) as comma-separated ``%.17g`` rows.

    The bytes are those of ``np.savetxt(path, np.column_stack(columns),
    delimiter=",", header=header, comments="", fmt="%.17g")``; see the module
    docstring for why and ``CSV_BLOCK_ROWS`` for the memory it takes."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    template = np.zeros((width, _W), dtype=np.uint8)
    template[:, :_INT] = np.frombuffer(b"-0.000", np.uint8)
    template[:, _DOT] = ord(".")
    template[:, _EXP] = ord("e")
    template[:, -1] = ord(",")
    template[-1, -1] = ord("\n")
    rows = len(columns[0])
    buffer = np.empty((min(rows, CSV_BLOCK_ROWS), width, _W), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode("latin1") + b"\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
            out = buffer[:len(block)]
            out[...] = template
            fh.write(_format_block(block.ravel(), out.reshape(-1, _W)))


def write_profile_csv(path: str, x: np.ndarray, states: np.ndarray,
                      w: np.ndarray) -> None:
    """Write columns x, A0..A3, B0, B1, W with full (17 digit) precision:
    the bytes of ``np.savetxt(..., fmt="%.17g")``, by :func:`write_csv`."""
    write_csv(path, "x,A0,A1,A2,A3,B0,B1,W", [x, states, w])


def read_profile_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a profile CSV; returns (x, states, w).  Raises ValueError unless
    the file holds at least 3 rows of the 8 columns, the fewest points a
    solve writes (``SolveConfig.profile_points``)."""
    with warnings.catch_warnings():
        # an empty file is reported below, as an error
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 3 or data.shape[1] != 8:
        raise ValueError(f"profile {path} must hold at least 3 rows of 8 columns "
                         f"(x, A0..A3, B0, B1, W); it holds {data.shape[0]} row(s) "
                         f"of {data.shape[1] if data.size else 0} column(s)")
    return data[:, 0], data[:, 1:7], data[:, 7]


def write_json(path, payload: dict) -> None:
    """Write a JSON report with sorted keys, two-space indent and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
