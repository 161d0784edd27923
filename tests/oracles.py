"""Reference computations the tests compare the package against."""

import itertools
import math

import numpy as np

from compound_fsc import causal_log_prob_rows
from compound_fsc.util import enumerate_paths


def causal_channel_prob(fsc, xs, ys, s0) -> float:
    """P(y^n || x^n, s_0): causal_log_prob_rows on one row."""
    return float(np.exp(causal_log_prob_rows(fsc, [list(xs)], [list(ys)], s0)[0]))


def naive_causal_channel_prob(fsc, xs, ys, s0: int) -> float:
    """Brute-force state-path enumeration; oracle for the forward recursion."""
    xs, ys = list(xs), list(ys)
    total = []
    for path in enumerate_paths(fsc.n_states, len(xs)):
        p = 1.0
        prev = s0
        for i in range(len(xs)):
            p *= fsc.kernel[prev, xs[i], ys[i], path[i]]
            prev = path[i]
        total.append(p)
    return math.fsum(total)


def marginal_entropy(joint, n: int, x_card: int, y_card: int, keep_x: int, keep_y: int) -> float:
    """H(X^keep_x, Y^keep_y) of a path joint [xcode, ycode], codes earliest
    symbol most significant, by a loop over its entries; 0 log 0 = 0."""
    cells = {}
    for xcode, xs in enumerate(itertools.product(range(x_card), repeat=n)):
        for ycode, ys in enumerate(itertools.product(range(y_card), repeat=n)):
            cells.setdefault((xs[:keep_x], ys[:keep_y]), []).append(float(joint[xcode, ycode]))
    masses = [math.fsum(c) for c in cells.values()]
    return -math.fsum(m * math.log(m) for m in masses if m > 0)
