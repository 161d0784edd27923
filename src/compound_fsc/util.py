"""Small numeric helpers used throughout the package.

All information quantities are in nats; conversion to bits happens only at
output boundaries (CLI, reports).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ValidationError

LN2 = math.log(2.0)
_F64 = np.dtype(float)


def xlogy(x, y):
    """Elementwise x*log(y) with the convention 0*log(0) = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.log(y, out=np.zeros(np.broadcast(x, y).shape), where=x > 0)
    out *= x
    return out


def binary_entropy_nats(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def project_rows_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto the probability simplex,
    in place: written into v, or into the 2-D float64 array v converts to,
    and returned.

    Sort-based algorithm; exact up to float rounding. Two-entry rows take the
    same arithmetic without the sort: with css = (a + b) - 1, theta is css / 2
    unless that leaves the smaller entry non-positive (then max(a, b) - 1),
    bitwise equal to the general path.
    """
    if type(v) is not np.ndarray or v.ndim != 2 or v.dtype is not _F64:
        v = np.atleast_2d(np.asarray(v, dtype=float))
    n = v.shape[1]
    if n == 2:
        a, b = v[:, 0], v[:, 1]
        top = np.maximum(a, b)
        theta = top - 1.0
        half = a + b
        half -= 1.0
        half /= 2
        # the sort path's rho is 2 when the smaller entry stays positive, and
        # also when even the larger one fails (|top| too large for top - 1);
        # x - y > 0 is x > y in floats (gradual underflow), so no subtraction
        rho2 = (np.minimum(a, b) > half) | (theta >= top)
        del top
        np.copyto(theta, half, where=rho2)
    else:
        u = np.sort(v, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - 1.0
        ind = np.arange(1, n + 1)
        cond = u - css / ind > 0
        # rho: last index where the condition holds, guaranteed >= 1
        rho = n - np.argmax(cond[:, ::-1], axis=1)
        theta = css[np.arange(v.shape[0]), rho - 1] / rho
    v -= theta[:, None]
    return np.maximum(v, 0.0, out=v)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValidationError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValidationError("successes must lie in [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def chunk_digits(card: int) -> int:
    """Most base-`card` digits packed into one int64 chunk: 62 // log2(card),
    so card ** width never overflows; 62 for card 1."""
    return int(62 // math.log2(card)) if card > 1 else 62


def symbol_dtype(card: int) -> np.dtype:
    """The one dtype of a table of symbols 0..card-1: the narrowest that holds
    them (uint8 up to 256 symbols, uint16 up to 65 536)."""
    return np.min_scalar_type(card - 1)


def cdf_draw(cdf_cols, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw, one uniform per row, from precomputed CDF columns.

    cdf_cols[j] holds entry j of every row's CDF for all entries but the
    last, which the draw never reads. A CDF never decreases (cumulative sums
    of non-negative floats), so the count of entries below u among the first
    K - 1 is min(#{j : cdf_j < u}, K - 1): a u above a last entry that rounds
    below 1 still picks K - 1.
    """
    pick = np.zeros(np.shape(u), dtype=np.int64)
    for col in cdf_cols:
        pick += col < u
    return pick


def sample_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from each row of a row-stochastic matrix, one uniform per row."""
    return cdf_draw(rows.cumsum(axis=1)[:, :-1].T, u)


def enumerate_paths(card: int, length: int) -> np.ndarray:
    """All sequences of given length over {0..card-1} as an int matrix.

    Row k holds the base-`card` digits of k, earliest digit most significant.
    """
    if length == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.indices((card,) * length).reshape(length, -1).T
    return np.ascontiguousarray(grids, dtype=np.int64)


def worker_count() -> int:
    """Thread budget taken from COMPOUND_FSC_THREADS; 0 or unset is auto: at
    most 4, and no more than the CPUs this process may run on (its affinity
    set where the platform has one, else the machine's CPU count)."""
    raw = os.environ.get("COMPOUND_FSC_THREADS", "0")
    try:
        k = int(raw)
    except ValueError:
        raise ValidationError(f"COMPOUND_FSC_THREADS must be an integer, got {raw!r}")
    if k < 0:
        raise ValidationError("COMPOUND_FSC_THREADS must be >= 0")
    if k == 0:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(4, cpus or 1)
    return k
