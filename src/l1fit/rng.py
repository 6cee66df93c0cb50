"""Counter-based random numbers pinned for bit-reproducible benchmarks.

The generator is fully specified so a port in any language reproduces the
same instances from the same seed:

* 64-bit word i of stream (seed, salt):
    key  = mix64(seed + salt * 0xD1B54A32D192ED03)        (mod 2^64)
    word = mix64(key + (i + 1) * 0x9E3779B97F4A7C15)      (mod 2^64)
  where mix64 is the SplitMix64 finalizer
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31
* uniform i = ((word >> 11) + 1) * 2^-53, a double in (0, 1].
* standard normals come from the Box-Muller transform applied to
  consecutive uniform pairs (u_{2k}, u_{2k+1}):
    n_{2k}   = sqrt(-2 ln u_{2k}) * cos(2 pi u_{2k+1})
    n_{2k+1} = sqrt(-2 ln u_{2k}) * sin(2 pi u_{2k+1})

Word i is a pure function of (seed, salt, i), so a port can produce any
sub-sequence independently and in parallel; the functions here return the
first ``count`` values of a stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["raw_words", "uniforms", "normals"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SALT_MULT = np.uint64(0xD1B54A32D192ED03)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _stream_key(seed: int, salt: int) -> np.uint64:
    with np.errstate(over="ignore"):
        base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.uint64(salt) * _SALT_MULT
    return _mix64(np.array([base], dtype=np.uint64))[0]


def raw_words(seed: int, count: int, salt: int = 0) -> np.ndarray:
    """Words 0..count-1 of the (seed, salt) stream, as uint64."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    key = _stream_key(seed, salt)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(key + idx * _GOLDEN)


def uniforms(seed: int, count: int, salt: int = 0) -> np.ndarray:
    """Doubles in (0, 1], one per stream word."""
    words = raw_words(seed, count, salt)
    return ((words >> np.uint64(11)).astype(np.float64) + 1.0) * _U53


def normals(seed: int, count: int, salt: int = 0) -> np.ndarray:
    """Standard normal variates via Box-Muller over uniform pairs."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs, salt)
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]
