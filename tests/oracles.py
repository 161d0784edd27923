"""Reference computations the tests compare the package against."""

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
