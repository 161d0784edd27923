"""Closed-loop Monte Carlo over a compound channel, plus exact error sums.

Per-trial randomness comes from one row of a counter-based (Philox) uniform
matrix keyed by the seed. Each worker chunk draws only its own rows, by
advancing the counter to its first row, and continues the one generator slab
by slab: it draws and drives _SLAB_ROWS trials at a time, their uniforms
stored step-major in one reused buffer, so results do not depend on how
trials are split across worker threads or slabs, and each step reads its
uniforms contiguously. The loop's tables, the stacked tree symbols and one
CDF table per channel (the kernel's cumulative sums over (y, s') for every
(s, x)), are built once per run; all trials of a slab take step i together,
each drawing by `util.cdf_draw` from its own row of the table. run_trials
allocates its result tables once, step-major (n, trials), and each slab
fills its own column slice in place; a result's outputs and state_paths are
transposed (trials, n) views of those tables. Every table of symbols,
messages and decisions, inputs, outputs or states takes the narrowest dtype
that holds its alphabet (`util.symbol_dtype`: uint8 up to 256 symbols), as
the code-trees store theirs, so the trees' symbols stack without a cast.
Each slab also packs its outputs, while they are in cache, into one base-|Y|
code per trial (`decoder._pack_rows`) in a run-wide table of the narrowest
dtype that holds |Y|^n - 1 (uint16 at |Y| = 2, n = 12), or of int64 key
columns when one int64 cannot hold a row. A decision is a function of the
output row alone, so once its worker threads are done run_trials dedupes
that table once (`decoder._distinct_keys`: by counting when the code space
is small, else by a sort), decodes the run's sorted distinct outputs in one
decode_rows call, which bounds its own memory and threads, and reads each
trial's decision back through its code.
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
from .codetree import Codebook, CodeTree, node_columns, sample_codebook
from .decoder import MLDecoder, UniversalDecoder, _codebook_key_table, _distinct_keys, _pack_rows, _scored_blocks
from .errors import CapExceededError, ValidationError
from .util import LN2, binary_entropy_nats, cdf_draw, chunk_digits, enumerate_paths, symbol_dtype, wilson_interval, worker_count

_THREAD_MIN_CHUNK = 20_000
_DRAW_ROWS = 1024  # trial rows a chunk draws per call, transposed while in cache
# Trial rows a chunk draws and drives at a time, in one reused (n + 2, rows)
# uniform buffer. Sweep on simulate-ml, two threads on 2 CPUs, at 1 / 4 / 8 /
# 16 / 32 / 64 Ki rows: the drive phase's tracemalloc peak was 7.4 / 8.6 /
# 8.2 / 10.3 / 16.1 / 22.2 MiB, against 3.2-4.6 MiB for decoding (three runs
# at 16 Ki rows with the run-wide code table: drive 10.4-10.5 MiB); with the
# decoder stubbed a warm run took 131 / 61 / 43 / 38 / 29 / 27 ms (32 ms with
# one slab a chunk), as the two threads contend once per numpy call, and on
# one thread 4 Ki rows were not slower. Cold runs of the whole workload did
# not tell 16 from 32 Ki apart; peak RSS was 60.2 / 60.1 / 62.9 MB at 8 / 16 /
# 32 Ki (80.2 MB with one slab a chunk).
_SLAB_ROWS = 16 * _DRAW_ROWS  # 16 384
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
        # numpy integers pass and bools do not, as for s0
        for name, low in (("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if not np.issubdtype(type(value), np.integer) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.decoder not in ("ml", "universal"):
            raise ValidationError("decoder must be 'ml' or 'universal'")
        fsc = self.family.member(self.true_label)
        if self.s0 is not None:
            if not np.issubdtype(type(self.s0), np.integer) or not 0 <= self.s0 < fsc.n_states:
                raise ValidationError(f"s0 = {self.s0} outside 0..{fsc.n_states - 1}")
        _as_prior(fsc, self.s0_prior)
        _as_prior(fsc, self.decoder_s0_prior)
        _check_loop(fsc, self.codebook, self.feedback)


def _check_loop(fsc: FscSpec, cb: Codebook, feedback: FeedbackMap) -> None:
    """Refuse a codebook or feedback map that does not fit the channel."""
    if feedback.table.size != fsc.n_outputs:
        raise ValidationError("feedback table does not cover the output alphabet")
    if cb.trees[0].x_card != fsc.n_inputs:
        raise ValidationError("codebook and channel disagree on |X|")
    if cb.trees[0].z_card != feedback.z_card:
        raise ValidationError("codebook and feedback map disagree on |Z|")


@dataclass(frozen=True, eq=False)
class TrialResult:
    """One run's trials. Every table of symbols is in `symbol_dtype` of its
    alphabet's size, the narrowest dtype that holds it (uint8 up to 256):
    messages and decisions of M, initial_states of |S|, and outputs and
    state_paths, (trials, n), of |Y| and |S|."""

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
    each (trials, n), transposed views of step-major (n, trials) tables.
    Each table is in `symbol_dtype` of its alphabet's size (|X|, |Y|, |S|),
    the narrowest dtype that holds it (uint8 up to 256 symbols), the rule
    run_trials' result tables follow."""
    t, n = u_steps.shape[0], cb.depth
    loop = _loop_tables(fsc, cb, feedback)
    xs, ys, states = (np.empty((n, t), dtype=table.dtype) for table in (loop.flat, loop.y_of, loop.s_of))
    _drive(loop, w, s0, u_steps.T, ys, states, xs)
    return xs.T, ys.T, states.T


def _code_table(n_y: int, n: int, trials: int) -> np.ndarray:
    """The run's (keys, trials) table of output codes, as decoder._pack_rows
    packs them in base |Y|: one key in `symbol_dtype(|Y|^n)` when one int64
    key holds a row, else int64 keys of chunk_digits(|Y|) outputs each."""
    keys = -(-n // chunk_digits(n_y))
    return np.empty((keys, trials), dtype=symbol_dtype(n_y**n) if keys == 1 else np.int64)


@dataclass(frozen=True, eq=False)
class _LoopTables:
    """The closed loop's per-run tables, built once however many calls of
    _drive share them."""

    tree: CodeTree  # the shape node_columns walks
    flat: np.ndarray  # every tree's symbols end to end, in symbol_dtype(|X|)
    n_x: int
    cdf: np.ndarray  # CDF column j: entry j of row s * |X| + x's CDF over (y, s')
    y_of: np.ndarray  # y and s' of each draw, in symbol_dtype(|Y|) and (|S|)
    s_of: np.ndarray
    z_of: np.ndarray  # feedback symbol of each y


def _loop_tables(fsc: FscSpec, cb: Codebook, feedback: FeedbackMap) -> _LoopTables:
    n_s, n_x = fsc.n_states, fsc.n_inputs
    symbols = np.stack([tree.symbols for tree in cb.trees], dtype=symbol_dtype(n_x))
    cdf = fsc.kernel.reshape(n_s * n_x, -1).cumsum(axis=1)[:, :-1].T.copy()
    y_of, s_of = np.divmod(np.arange(cdf.shape[0] + 1), n_s)
    return _LoopTables(
        cb.trees[0], symbols.ravel(), n_x, cdf,
        y_of.astype(symbol_dtype(fsc.n_outputs)), s_of.astype(symbol_dtype(n_s)), feedback.table,
    )


def _drive(loop: _LoopTables, w, s0, u, ys, states, xs=None) -> None:
    """The closed loop, written in place: step i gathers every trial's input
    and its CDF row s * |X| + x, draws the next (y, s') with row i of the
    step-major (n, trials) uniforms u, and stores them in row i of the
    step-major (n, trials) tables ys and states, and the input in xs[i] when
    xs is given."""
    t, depth = u.shape[1], ys.shape[0]
    # int64: in the messages' narrow dtype w * nodes would wrap (300 * 4095)
    base = np.multiply(w, loop.tree.symbols.size, dtype=np.int64)
    node, row, z = (np.empty(t, dtype=np.int64) for _ in range(3))
    x = np.empty(t, dtype=loop.flat.dtype)
    level = np.empty(t)
    s_cur = s0
    cols = node_columns(loop.tree, t)
    col = next(cols)
    # every index is in range by construction; mode="wrap" writes straight
    # into `out`, where the default mode="raise" stages a buffered copy
    for i in range(depth):
        np.take(loop.flat, np.add(base, col, out=node), out=x, mode="wrap")
        # int64 loop: numpy picks the loop from the inputs, not from `out`,
        # so s * |X| in the states' narrow dtype would wrap past its range
        np.add(np.multiply(s_cur, loop.n_x, out=row, dtype=np.int64), x, out=row)
        pick = cdf_draw((np.take(c, row, out=level, mode="wrap") for c in loop.cdf), u[i])
        np.take(loop.y_of, pick, out=ys[i], mode="wrap")
        s_cur = np.take(loop.s_of, pick, out=states[i], mode="wrap")
        if xs is not None:
            xs[i] = x
        if i < depth - 1:
            col = cols.send(np.take(loop.z_of, ys[i], out=z, mode="wrap"))


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
    w = np.empty(cfg.trials, dtype=symbol_dtype(cb.m_count))
    s0 = np.empty(cfg.trials, dtype=symbol_dtype(fsc.n_states))
    loop = _loop_tables(fsc, cb, cfg.feedback)
    ys = np.empty((n, cfg.trials), dtype=loop.y_of.dtype)
    states = np.empty((n, cfg.trials), dtype=loop.s_of.dtype)
    codes = _code_table(fsc.n_outputs, n, cfg.trials)

    def drive(lo: int, hi: int):
        # Philox yields 4 doubles a counter step and lo is a multiple of 4,
        # so this chunk reads rows lo..hi-1 of the run's one uniform matrix,
        # slab by slab from the one generator, stored step-major: u[j] holds
        # column j of the slab's rows
        gen = np.random.Generator(np.random.Philox(key=cfg.seed).advance(lo * (n + 2) // 4))
        slab = np.empty((n + 2, min(_SLAB_ROWS, hi - lo)))
        block = np.empty((_DRAW_ROWS, n + 2))
        for a in range(lo, hi, _SLAB_ROWS):
            b = min(a + _SLAB_ROWS, hi)
            u = slab[:, : b - a]
            for c in range(0, b - a, _DRAW_ROWS):
                rows = gen.random(out=block[: b - a - c])
                u[:, c : c + rows.shape[0]] = rows.T
            # floor(u M), capped at M - 1, cast straight into the narrow slice
            np.multiply(u[0], cb.m_count, out=u[0])
            np.minimum(u[0], cb.m_count - 1, out=w[a:b], casting="unsafe")
            s0[a:b] = cfg.s0 if cfg.s0 is not None else cdf_draw(prior_cdf, u[1])
            _drive(loop, w[a:b], s0[a:b], u[2:], ys[:, a:b], states[:, a:b])
            _pack_rows(ys[:, a:b], fsc.n_outputs, codes[:, a:b])

    workers = worker_count() if cfg.trials >= 2 * _THREAD_MIN_CHUNK else 1
    bounds = [int(b) // 4 * 4 for b in np.linspace(0, cfg.trials, workers + 1)[:-1]] + [cfg.trials]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(drive, bounds[:-1], bounds[1:]))  # re-raises a chunk's error
    # decode each distinct output of the run once
    distinct, spread = _distinct_keys(ys.T, codes, fsc.n_outputs)
    w_hat = spread(decoder.decode_rows(cb, distinct))
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
    _check_loop(fsc, cb, feedback)
    # enumerate_paths' rows are distinct and sorted as _distinct_rows sorts
    y_all = enumerate_paths(fsc.n_outputs, n)
    w_hat = decoder.decode_rows(cb, y_all)
    keys, trees, _ = _codebook_key_table(cb)
    messages: dict = {}  # each distinct tree's messages
    for w, tree in enumerate(cb.trees):
        messages.setdefault(tree.key, []).append(w)

    def error_masses(lo, ll):  # each message's likelihood of the outputs decoded to another message
        return [(w, float(np.exp(row[w_hat != w]).sum())) for j, row in enumerate(ll, lo) for w in messages[keys[j]]]

    masses = sorted(pair for block in _scored_blocks(fsc, trees, y_all, feedback, int(s0), error_masses) for pair in block)
    return float(np.cumsum([m for _, m in masses])[-1]) / cb.m_count  # cumsum adds left to right, in message order


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
    """Summarise run_trials(example1_config(...)): from the all-bad start the
    state chain rarely leaves the noisy state, so short blocks carry almost
    no information and two messages collide a quarter of the time."""
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
