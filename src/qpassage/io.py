"""Artifact writers: CSV tables, the run manifest and its timings.

CSV numbers are written as %.17e, 18 significant digits in scientific
notation, manifest numbers as JSON's shortest round-trip form, and files use
LF line endings, so identical runs produce byte-identical CSVs and manifests;
the wall-clock duration goes to the separate timings file.

`write_csv` formats a chunk of rows at a time with numpy (`_encode`) and
writes the very bytes `'%.17e' % v` gives, without its per-value cost.  With
E = floor(log10 |v|) and 10**(17 - E) held as the double-double hi + lo,
|v| 10**(17 - E) = p + t, where p = fl(|v| hi) is an integer and
t = (|v| hi - p) + |v| lo, its first term exact by Dekker's product (Numer.
Math. 18, 224 (1971)); so t is known to about 1e-14.  The 18 digits are
those of p + floor(t), plus 1 when frac(t) > 1/2, read four at a time from
a table.  A value this cannot round with certainty gets `'%.17e' % v` in
its own field, and the values beside it keep the table's: a value that is
not finite, has |E| > 280, has frac(t) within 1e-6 of 1/2 (a tie, or too
close to one to tell), or whose digits do not number 18 (log10 off by one
next to a power of ten, or a rounding carry).  Zeros of either sign are
formatted.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .dynamics import SimulationResult

__all__ = ["write_csv", "write_trajectory_csv", "write_manifest", "write_timings"]

_FMT = "%.17e"
# rows formatted per write, whose work arrays stay in the cache: a 4001 x 7
# table took 6.8 ms in chunks of 512 rows, 6.7 in 1024 (twice the arrays),
# 7.8 in 256 and 8.2 in one chunk (medians of 40, 2-core x86 guest)
_CHUNK = 512
_EXP = 280  # largest |decimal exponent| formatted by `_encode`
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_TIE = 1e-6  # a scaled value's fraction this close to 1/2 goes to `%`


@functools.cache
def _powers():
    """(hi, lo): 10**(17 - E) as the double-double hi + lo for
    E = -_EXP .. _EXP (index E + _EXP), from Python ints, whose true division
    rounds correctly."""
    hi, lo = [], []
    for s in range(17 + _EXP, 16 - _EXP, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        head = num / den
        a, b = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


@functools.cache
def _glyphs():
    """(lead, quad, tail), the fields of `_words` as 4-byte words:
    lead[k + 100 s] = "-d.d" of the digits of k < 100, its "-" a NUL unless
    s = 1; quad[k] = the 4 digits of k < 10000; tail[:, E + _EXP] = "e+HT"
    and "U" plus three NULs, H a NUL for |E| < 100."""
    numerals = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)  # digits[a, b, c, d] = "abcd"
    for place in range(4):
        digits[..., place] = numerals.reshape((10,) + (1,) * (3 - place))
    digits = digits.reshape(10000, 4)
    lead = np.zeros((2, 100, 4), np.uint8)
    lead[1, :, 0] = ord("-")
    lead[:, :, 1], lead[:, :, 2], lead[:, :, 3] = digits[:100, 2], ord("."), digits[:100, 3]
    exp = np.arange(-_EXP, _EXP + 1)
    tail = np.zeros((len(exp), 8), np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(exp < 0, ord("-"), ord("+"))
    tail[:, 2:5] = digits[np.abs(exp), 1:]
    tail[np.abs(exp) < 100, 2] = 0
    return (lead.reshape(200, 4).view(np.uint32).ravel(), digits.view(np.uint32).ravel(),
            tail.view(np.uint32).T.copy())


def _split(a):
    """a as high + low, halves whose products are exact."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _round(values):
    """(n, E + _EXP, refused) per value of the flat float64 array `values`:
    n is |v| 10**(17 - E) rounded to the nearest integer,
    10**17 <= n < 10**18 (n = E = 0 for a zero), and `refused` marks the
    values that need `%`, whose n and row are placeholders."""
    x = np.abs(values)
    zero = x == 0.0
    finite = np.isfinite(x)
    exp = np.floor(np.log10(np.where(zero | ~finite, 1.0, x)))  # a zero reads E = 0
    refused = ~finite | (np.abs(exp) > _EXP)
    x[refused], exp[refused] = 1.0, 0.0  # placeholders whose arithmetic cannot overflow
    row = exp.astype(np.int64) + _EXP
    power_hi, power_lo = _powers()
    hi, lo = power_hi[row], power_lo[row]
    # y = x 10**(17 - E) = p + t exactly up to ~1e-14, p = fl(x hi) an integer
    p = x * hi
    (xh, xl), (hh, hl) = _split(x), _split(hi)
    t = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + x * lo
    whole = np.floor(t)
    frac = t - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    n = floor + (frac > 0.5)
    # a near-tie; log10 may be off by one next to a power of ten, and
    # rounding may carry
    refused |= (np.abs(frac - 0.5) < _TIE) | (n >= 10 ** 18) | ((floor < 10 ** 17) & ~zero)
    n[refused] = 0
    return n, row, refused


def _words(n, row, negative):
    """Per value, the 7 words of -d.ddddddddddddddddde+HTU and three NULs,
    from `_round`'s n and row; the "-" is a NUL unless `negative`."""
    lead, quad, tail = _glyphs()
    high = n // 10 ** 8
    top = high // 10 ** 8  # the first two digits
    eights = np.stack([high - top * 10 ** 8, n - high * 10 ** 8], axis=1)  # 8 digits each
    fours = eights // 10 ** 4
    words = np.empty((len(n), 7), np.uint32)
    words[:, 0] = lead[top + 100 * negative]
    words[:, 1:5:2] = quad[fours]
    words[:, 2:5:2] = quad[eights - fours * 10 ** 4]
    words[:, 5] = tail[0, row]
    words[:, 6] = tail[1, row]
    return words


def _encode(values, seps):
    """The bytes of `'%.17e' % v` for the flat float64 array `values`, each
    followed by its separator byte in `seps`: a value `_round` refuses gets
    `%`'s bytes in its own field.  Each stage is its own function, so its
    work arrays are freed before the next one's are made."""
    n, row, refused = _round(values)
    fields = _words(n, row, np.signbit(values)).view(np.uint8)
    if refused.any():
        # the longest '%.17e', -d.ddddddddddddddddde-HTU, fills a field's 25 bytes
        text = b"".join((_FMT % v).encode().ljust(25, b"\0") for v in values[refused].tolist())
        fields[refused, :25] = np.frombuffer(text, np.uint8).reshape(-1, 25)
    fields[:, 25] = seps  # over the NUL after U
    return fields.tobytes().translate(None, b"\0")


def write_csv(path, header, columns) -> None:
    """A header line, then one row per entry of the equal-length `columns`."""
    data = np.column_stack(columns).astype(np.float64, copy=False)
    seps = np.tile(np.frombuffer(b"," * (data.shape[1] - 1) + b"\n", np.uint8), _CHUNK)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(data), _CHUNK):
            chunk = data[start:start + _CHUNK].ravel()
            fh.write(_encode(chunk, seps[:chunk.size]))


def write_trajectory_csv(result: SimulationResult, path, time_scale: float = 1.0) -> None:
    """Columns: t, one population per label (sorted), F, residual."""
    labels = sorted(result.populations)
    residual = result.auxiliary.get("residual")
    if residual is None:
        residual = np.zeros_like(result.times)
    write_csv(path, ["t"] + [f"P_{name}" for name in labels] + ["F", "residual"],
              [result.times * time_scale] + [result.populations[name] for name in labels]
              + [result.fidelity, residual])


def _write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(path, config_echo: dict, runs: list, version: str) -> None:
    """The config echo, the per-run records and the version; nothing that
    depends on the wall clock, so identical runs write identical bytes."""
    _write_json(path, {"config": config_echo, "runs": runs, "version": version})


def write_timings(path, duration_seconds: float) -> None:
    """Wall-clock facts of a run, kept out of the manifest."""
    _write_json(path, {"duration_seconds": duration_seconds})
