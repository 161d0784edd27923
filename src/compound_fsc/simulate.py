"""Closed-loop Monte Carlo over a compound channel, plus exact error sums.

Per-trial randomness comes from one row of a counter-based (Philox) uniform
matrix keyed by the seed. Each worker chunk draws only its own rows, by
advancing the counter to its first row, and stores them step-major, so
results do not depend on how trials are split across worker threads and each
step reads its uniforms contiguously. Each batch builds one CDF table per
channel, the kernel's cumulative sums over (y, s') for every (s, x), and
samples it step-major: all trials take step i together, each drawing by
`util.cdf_draw` from its own row of the table. run_trials allocates its
result tables once, step-major (n, trials), and each worker thread fills its
own column slice in place; a result's outputs and state_paths are transposed
(trials, n) views of those tables. A decision is a function of the output
row alone, so run_trials decodes each distinct output of the run once, the
sorted distinct rows split into one range per worker thread.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .causal import _as_prior, uniform_policy
from .channel import (
    CompoundFamily,
    FeedbackMap,
    FscSpec,
    GilbertElliotParams,
    identity_feedback,
    make_gilbert_elliot,
)
from .codetree import Codebook, node_columns, sample_codebook
from .decoder import MLDecoder, UniversalDecoder, _codebook_key_table, _distinct_rows, _log_likelihood_table
from .errors import CapExceededError, ValidationError
from .util import LN2, binary_entropy_nats, cdf_draw, enumerate_paths, wilson_interval, worker_count

_THREAD_MIN_CHUNK = 20_000
_DRAW_ROWS = 1024  # trial rows a chunk draws per call, transposed while in cache
EXACT_OUTPUT_PATHS = 4096  # most output paths exact_error_probability enumerates


@dataclass(frozen=True)
class TrialConfig:
    family: CompoundFamily
    true_label: str
    codebook: Codebook
    feedback: FeedbackMap
    decoder: str = "ml"  # "ml" decodes with the true member; "universal" merges all
    trials: int = 1000
    seed: int = 0
    s0: int | None = None
    s0_prior: tuple | None = None  # sampling prior when s0 is None; uniform default
    decoder_s0_prior: tuple | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.decoder not in ("ml", "universal"):
            raise ValidationError("decoder must be 'ml' or 'universal'")
        fsc = self.family.member(self.true_label)
        if self.s0 is not None:
            if not np.issubdtype(type(self.s0), np.integer) or not 0 <= self.s0 < fsc.n_states:
                raise ValidationError(f"s0 = {self.s0} outside 0..{fsc.n_states - 1}")
        _as_prior(fsc, self.s0_prior)
        _as_prior(fsc, self.decoder_s0_prior)


@dataclass(frozen=True, eq=False)
class TrialResult:
    trials: int
    errors: int
    error_rate: float
    ci95: tuple
    messages: np.ndarray
    decisions: np.ndarray
    error_flags: np.ndarray
    initial_states: np.ndarray
    state_paths: np.ndarray
    outputs: np.ndarray


def simulate_batch(
    fsc: FscSpec,
    cb: Codebook,
    feedback: FeedbackMap,
    w: np.ndarray,
    s0: np.ndarray,
    u_steps: np.ndarray,
):
    """Drive the channel for every trial at once; returns (x, y, states),
    each (trials, n), transposed views of step-major (n, trials) tables."""
    t, n = u_steps.shape[0], cb.depth
    xs, ys, states = (np.empty((n, t), dtype=np.int64) for _ in range(3))
    _drive(fsc, cb, feedback, w, s0, u_steps.T, ys, states, xs)
    return xs.T, ys.T, states.T


def _drive(fsc: FscSpec, cb: Codebook, feedback: FeedbackMap, w, s0, u, ys, states, xs=None) -> None:
    """The closed loop, written in place: step i gathers every trial's input
    and its CDF row s * |X| + x, draws the next (y, s') with row i of the
    step-major (n, trials) uniforms u, and stores them in row i of the
    step-major (n, trials) tables ys and states, and the input in xs[i] when
    xs is given."""
    n_s, n_x = fsc.n_states, fsc.n_inputs
    symbols = np.stack([tree.symbols for tree in cb.trees], dtype=np.min_scalar_type(n_x - 1), casting="unsafe")
    cdf = fsc.kernel.reshape(n_s * n_x, -1).cumsum(axis=1)[:, :-1].T.copy()
    y_of, s_of = np.divmod(np.arange(cdf.shape[0] + 1), n_s)
    flat = symbols.ravel()
    t = u.shape[1]
    base = w * symbols.shape[1]
    node, row, z = (np.empty(t, dtype=np.int64) for _ in range(3))
    x = np.empty(t, dtype=symbols.dtype)
    level = np.empty(t)
    s_cur = s0
    cols = node_columns(cb.trees[0], t)
    col = next(cols)
    # every index is in range by construction; mode="wrap" writes straight
    # into `out`, where the default mode="raise" stages a buffered copy
    for i in range(cb.depth):
        np.take(flat, np.add(base, col, out=node), out=x, mode="wrap")
        np.add(np.multiply(s_cur, n_x, out=row), x, out=row)
        pick = cdf_draw((np.take(c, row, out=level, mode="wrap") for c in cdf), u[i])
        np.take(y_of, pick, out=ys[i], mode="wrap")
        s_cur = np.take(s_of, pick, out=states[i], mode="wrap")
        if xs is not None:
            xs[i] = x
        if i < cb.depth - 1:
            col = cols.send(np.take(feedback.table, ys[i], out=z, mode="wrap"))


def _make_decoder(cfg: TrialConfig):
    if cfg.decoder == "ml":
        return MLDecoder(cfg.family.member(cfg.true_label), cfg.feedback, cfg.decoder_s0_prior)
    return UniversalDecoder(cfg.family, cfg.feedback, cfg.decoder_s0_prior)


def run_trials(cfg: TrialConfig) -> TrialResult:
    """Monte Carlo error rate with a Wilson 95% interval."""
    fsc = cfg.family.member(cfg.true_label)
    cb = cfg.codebook
    n = cb.depth
    prior_cdf = np.cumsum(_as_prior(fsc, cfg.s0_prior))[:-1]
    decoder = _make_decoder(cfg)
    w, s0 = (np.empty(cfg.trials, dtype=np.int64) for _ in range(2))
    ys = np.empty((n, cfg.trials), dtype=np.int64)
    states = np.empty_like(ys)

    def drive(lo: int, hi: int):
        # Philox yields 4 doubles a counter step and lo is a multiple of 4,
        # so this chunk reads rows lo..hi-1 of the run's one uniform matrix,
        # stored step-major: u[j] holds column j of those rows
        gen = np.random.Generator(np.random.Philox(key=cfg.seed).advance(lo * (n + 2) // 4))
        u = np.empty((n + 2, hi - lo))
        block = np.empty((_DRAW_ROWS, n + 2))
        for a in range(0, hi - lo, _DRAW_ROWS):
            rows = gen.random(out=block[: hi - lo - a])
            u[:, a : a + rows.shape[0]] = rows.T
        np.minimum((u[0] * cb.m_count).astype(np.int64), cb.m_count - 1, out=w[lo:hi])
        s0[lo:hi] = cfg.s0 if cfg.s0 is not None else cdf_draw(prior_cdf, u[1])
        _drive(fsc, cb, cfg.feedback, w[lo:hi], s0[lo:hi], u[2:], ys[:, lo:hi], states[:, lo:hi])
        del u
        return _distinct_rows(ys[:, lo:hi].T)

    workers = worker_count() if cfg.trials >= 2 * _THREAD_MIN_CHUNK else 1
    bounds = [int(b) // 4 * 4 for b in np.linspace(0, cfg.trials, workers + 1)[:-1]] + [cfg.trials]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # phase 1: each chunk draws and drives its own trials, and returns its
        # distinct output rows with the inverse that rebuilds its rows
        parts = list(pool.map(drive, bounds[:-1], bounds[1:]))  # re-raises a chunk's error
        # phase 2: decode each distinct output of the run once, the sorted
        # distinct rows split into one range per worker
        distinct, where = _distinct_rows(np.concatenate([d for d, _ in parts]))
        cuts = np.linspace(0, distinct.shape[0], workers + 1, dtype=int)
        decided = np.concatenate(
            list(pool.map(lambda a, b: decoder.decode_rows(cb, distinct[a:b]), cuts[:-1], cuts[1:]))
        )
    at = np.split(where, np.cumsum([len(d) for d, _ in parts])[:-1])  # each chunk's rows of `distinct`
    w_hat = np.concatenate([decided[a][inverse] for a, (_, inverse) in zip(at, parts)])
    flags = w_hat != w
    errors = int(flags.sum())
    return TrialResult(
        trials=cfg.trials,
        errors=errors,
        error_rate=errors / cfg.trials,
        ci95=wilson_interval(errors, cfg.trials),
        messages=w,
        decisions=w_hat,
        error_flags=flags,
        initial_states=s0,
        state_paths=states.T,
        outputs=ys.T,
    )


def exact_error_probability(cb: Codebook, fsc: FscSpec, s0: int, feedback: FeedbackMap, decoder) -> float:
    """Average over messages of the exact decoding-error probability, by
    enumerating every output path. Refuses when |Y|^n exceeds
    EXACT_OUTPUT_PATHS."""
    n = cb.depth
    n_y = fsc.n_outputs ** n
    if n_y > EXACT_OUTPUT_PATHS:
        raise CapExceededError(f"output enumeration needs {n_y} paths (cap {EXACT_OUTPUT_PATHS})")
    y_all = enumerate_paths(fsc.n_outputs, n)
    w_hat = decoder.decode_rows(cb, y_all)
    keys, trees, _ = _codebook_key_table(cb)
    ll = _log_likelihood_table(fsc, trees, y_all, feedback, int(s0))
    row = {k: j for j, k in enumerate(keys)}
    total = 0.0
    for w, tree in enumerate(cb.trees):
        total += float(np.exp(ll[row[tree.key]][w_hat != w]).sum())
    return total / cb.m_count


@dataclass(frozen=True)
class Example1Row:
    theta: int
    n: int
    trials: int
    all_bad_freq: float
    all_bad_exact: float
    all_bad_sigma: float
    error_rate: float
    error_floor: float
    error_sigma: float
    one_minus_n_2n: float
    rate_floor_bits: float
    rate_floor_nats: float


def example1_config(theta: int, n: int, trials: int, seed: int = 0) -> TrialConfig:
    """Burst-noise truncation setup: two uniformly drawn code-trees over a
    slow-mixing channel forced to start in the noisy state."""
    g = 2.0 ** (-theta)
    member = make_gilbert_elliot(GilbertElliotParams(g=g, b=g, p_g=0.0, p_b=0.5))
    family = CompoundFamily(members=(member,), labels=(f"theta-{theta}",))
    fb = identity_feedback(member.outputs)
    rng = np.random.default_rng(seed)
    q_u = uniform_policy(n, member.n_inputs, fb.z_card)
    cb = sample_codebook(q_u, 2, rng)
    bad = 1  # state order is (G, B)
    return TrialConfig(
        family=family,
        true_label=f"theta-{theta}",
        codebook=cb,
        feedback=fb,
        decoder="ml",
        trials=trials,
        seed=seed,
        s0=bad,
        decoder_s0_prior=(0.0, 1.0),
    )


def example1_row(res: TrialResult, theta: int, n: int) -> Example1Row:
    bad = 1
    g = 2.0 ** (-theta)
    all_bad = (res.state_paths == bad).all(axis=1)
    freq = float(all_bad.mean())
    exact = (1.0 - g) ** n
    err_floor = 0.25
    trials = res.trials
    return Example1Row(
        theta=theta,
        n=n,
        trials=trials,
        all_bad_freq=freq,
        all_bad_exact=exact,
        all_bad_sigma=math.sqrt(exact * (1.0 - exact) / trials),
        error_rate=res.error_rate,
        error_floor=err_floor,
        error_sigma=math.sqrt(err_floor * (1.0 - err_floor) / trials),
        one_minus_n_2n=1.0 - n * 2.0 ** (-n),
        rate_floor_bits=1.0 - binary_entropy_nats(0.25) / LN2,
        rate_floor_nats=LN2 - binary_entropy_nats(0.25),
    )


def example1_demo(theta: int, n: int, trials: int, seed: int = 0) -> Example1Row:
    """Run the burst-noise truncation demo end to end: from the all-bad start
    the state chain rarely leaves the noisy state, so short blocks carry
    almost no information and two messages collide a quarter of the time."""
    res = run_trials(example1_config(theta, n, trials, seed))
    return example1_row(res, theta, n)
