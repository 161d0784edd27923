"""Training-based channel identification and the two-phase transmission scheme."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import blahut_arimoto, memoryless_compound_fb_capacity
from .channel import CompoundFamily, FscSpec
from .errors import ValidationError
from .util import xlogy


def estimate_memoryless_channel(fsc: FscSpec, m_per_symbol: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical conditional P_hat(y|x) from m probes of each input symbol."""
    if fsc.n_states != 1:
        raise ValidationError("estimation targets memoryless (single-state) channels")
    if m_per_symbol < 1:
        raise ValidationError("m_per_symbol must be >= 1")
    cond = fsc.kernel[0, :, :, 0]
    out = np.empty_like(cond)
    for x in range(fsc.n_inputs):
        out[x] = rng.multinomial(m_per_symbol, cond[x]) / m_per_symbol
    return out


def sanov_pinsker_bound(m: int, y_card: int, eps1: float) -> float:
    """(m+1)^|Y| exp(-m eps1^2 / 2): chance the output type strays eps1 in L1."""
    if m < 1 or y_card < 1 or eps1 <= 0:
        raise ValidationError("need m >= 1, y_card >= 1, eps1 > 0")
    return (m + 1) ** y_card * math.exp(-m * eps1 * eps1 / 2.0)


def empirical_violation_rate(
    fsc: FscSpec, input_symbol: int, m: int, eps1: float, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Observed rate of {L1(type, truth) >= eps1} next to the analytic bound."""
    if fsc.n_states != 1:
        raise ValidationError("type concentration check targets memoryless channels")
    row = fsc.kernel[0, input_symbol, :, 0]
    rng = np.random.Generator(np.random.Philox(key=seed))
    types = rng.multinomial(m, row, size=trials) / m
    dist = np.abs(types - row[None, :]).sum(axis=1)
    rate = float((dist >= eps1).mean())
    return rate, sanov_pinsker_bound(m, fsc.n_outputs, eps1)


def memoryless_mutual_info(q: np.ndarray, cond: np.ndarray) -> float:
    """I(q; P) in nats for a single-letter conditional table."""
    q = np.asarray(q, dtype=float)
    cond = np.asarray(cond, dtype=float)
    p_y = q @ cond
    joint = q[:, None] * cond
    return float(xlogy(joint, cond).sum() - xlogy(p_y, p_y).sum())


def entropy_continuity_bound(delta: float, card: int) -> float:
    """-delta ln(delta / card) bounds |H(p) - H(q)| for L1 distance delta <= 1/2."""
    if delta < 0:
        raise ValidationError("delta must be non-negative")
    if delta == 0:
        return 0.0
    return -delta * math.log(delta / card)


def mutual_info_continuity_bound(delta: float, y_card: int) -> float:
    """tau(delta): output and conditional entropy each move at most the
    entropy-continuity amount when the conditional table moves delta in L1."""
    return 2.0 * entropy_continuity_bound(delta, y_card)


@dataclass(frozen=True, eq=False)
class TwoPhaseResult:
    m_train: int
    n_total: int
    trials: int
    achieved_rates: np.ndarray
    achieved_mean: float
    target_rate: float
    benchmark_rate: float
    misidentification_rate: float


def two_phase_scheme(
    family: CompoundFamily,
    true_label: str,
    m_train: int,
    n_total: int,
    trials: int = 100,
    seed: int = 0,
) -> TwoPhaseResult:
    """Train on m_train probe symbols, pick the nearest member by L1 on the
    estimated conditional, then run the member-optimal memoryless input for
    the rest of the block. Rates are per channel use over the whole block."""
    fsc = family.member(true_label)
    if fsc.n_states != 1:
        raise ValidationError("two-phase scheme targets memoryless families")
    if not 1 <= m_train < n_total:
        raise ValidationError("need 1 <= m_train < n_total")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    m_per = m_train // fsc.n_inputs
    if m_per < 1:
        raise ValidationError("m_train must cover every input symbol")
    true_cond = fsc.kernel[0, :, :, 0]
    conds = [m.kernel[0, :, :, 0] for m in family.members]
    optimal = [blahut_arimoto(c)[1] for c in conds]
    fraction = 1.0 - m_train / n_total
    target = fraction * blahut_arimoto(true_cond)[0]
    benchmark = fraction * memoryless_compound_fb_capacity(family)
    rng = np.random.Generator(np.random.Philox(key=seed))
    rates = np.empty(trials)
    wrong = 0
    true_idx = family.labels.index(true_label)
    for t in range(trials):
        est = estimate_memoryless_channel(fsc, m_per, rng)
        dists = [np.abs(est - c).sum() for c in conds]
        pick = int(np.argmin(dists))
        wrong += pick != true_idx
        rates[t] = fraction * memoryless_mutual_info(optimal[pick], true_cond)
    return TwoPhaseResult(
        m_train=m_train,
        n_total=n_total,
        trials=trials,
        achieved_rates=rates,
        achieved_mean=float(rates.mean()),
        target_rate=target,
        benchmark_rate=benchmark,
        misidentification_rate=wrong / trials,
    )
