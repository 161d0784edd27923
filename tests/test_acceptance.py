"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest -v` (test outcomes) or `pytest -s` (verdict lines with details).
Every test prints exactly one pass/fail line before asserting, so a tee'd log
always shows which criterion broke and by how much.
"""

import itertools
import math
import time

import numpy as np

from compound_fsc import (
    CompoundFamily,
    FscSpec,
    GilbertElliotParams,
    MLDecoder,
    RankingFunction,
    SolverConfig,
    TrialConfig,
    UniversalDecoder,
    bsc,
    compute_Cn,
    compute_Cn_nofeedback,
    empirical_violation_rate,
    exact_error_probability,
    example1_config,
    example1_row,
    ge_feedback_gap,
    ge_gap_family,
    identity_feedback,
    input_prob,
    joint_and_output_probs,
    make_gilbert_elliot,
    merge_rankings,
    ml_decode,
    random_policy,
    run_trials,
    sample_codebook,
    sanov_pinsker_bound,
    two_phase_scheme,
    universal_decode,
    zero_capacity_family,
    zero_capacity_witness,
)
from compound_fsc.capacity import GAP_TOL
from compound_fsc.util import binary_entropy_nats
from compound_fsc.verify import (
    random_fsc,
    suite_continuity_lemma,
    suite_exponents,
    suite_kim_identity,
    suite_state_gap,
    suite_superadditivity,
    suite_zero_capacity,
)
from oracles import causal_channel_prob

LN2 = math.log(2.0)


def report(num, name, ok, detail):
    verdict = "pass" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {verdict} ({detail})")
    return ok


def test_criterion_01_directed_info_identity():
    t0 = time.perf_counter()
    res = suite_kim_identity(instances=100)
    dt = time.perf_counter() - t0
    ok = res.passed and res.worst < 1e-10 and dt < 10.0
    assert report(
        1,
        "identity-suite",
        ok,
        f"100 instances, max deviation {res.worst:.2e} < 1e-10, {dt:.1f}s < 10s",
    )


def naive_state_path_prob(fsc, xs, ys, s0):
    total = 0.0
    for spath in itertools.product(range(fsc.n_states), repeat=len(xs)):
        prob, prev = 1.0, s0
        for i, s_next in enumerate(spath):
            prob *= fsc.kernel[prev, xs[i], ys[i], s_next]
            prev = s_next
        total += prob
    return total


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(1002)
    worst_fwd = 0.0
    worst_joint = 0.0
    for n_states in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for _ in range(2):
                fsc = random_fsc(rng, n_states, 2, 2)
                fb = identity_feedback(fsc.outputs)
                q = random_policy(n, 2, fb.z_card, rng)
                joint, _ = joint_and_output_probs(q, fsc, 0, fb)
                for xs in itertools.product(range(2), repeat=n):
                    x_code = int("".join(map(str, xs)), 2) if n else 0
                    for ys in itertools.product(range(2), repeat=n):
                        y_code = int("".join(map(str, ys)), 2) if n else 0
                        zs = [fb.table[y] for y in ys[:-1]]
                        for s0 in range(n_states):
                            fwd = causal_channel_prob(fsc, xs, ys, s0)
                            naive = naive_state_path_prob(fsc, xs, ys, s0)
                            worst_fwd = max(worst_fwd, abs(fwd - naive))
                        chain = input_prob(q, xs, zs) * causal_channel_prob(fsc, xs, ys, 0)
                        worst_joint = max(worst_joint, abs(joint[x_code, y_code] - chain))
    ok = worst_fwd < 1e-12 and worst_joint < 1e-12
    assert report(
        2,
        "oracle-equivalence",
        ok,
        f"forward vs enumeration {worst_fwd:.2e}, chain rule {worst_joint:.2e}, tol 1e-12",
    )


def test_criterion_03_capacity_sanity():
    t0 = time.perf_counter()
    cfg = SolverConfig(max_iters=400, restarts=2, seed=5)
    fb = identity_feedback((0, 1))
    worst = 0.0
    for p in (0.05, 0.1, 0.2, 0.3, 0.45):
        fam = CompoundFamily(members=(bsc(p),), labels=(f"p{p}",))
        got = compute_Cn(fam, fb, 1, cfg).C_n_nats
        worst = max(worst, abs(got - (LN2 - binary_entropy_nats(p))))
    pair = CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("p10", "p20"))
    got = compute_Cn(pair, fb, 1, cfg).C_n_nats
    pair_dev = abs(got - (LN2 - binary_entropy_nats(0.2)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and pair_dev < 1e-3 and dt < 60.0
    assert report(
        3,
        "capacity-sanity",
        ok,
        f"singleton dev {worst:.2e}, pair dev {pair_dev:.2e} < 1e-3 nats, {dt:.1f}s < 60s",
    )


def test_criterion_04_ge_feedback_gap():
    t0 = time.perf_counter()
    family = ge_gap_family()
    worst_gap = -math.inf
    worst_floor = math.inf
    for n in (1, 2, 3):
        res = ge_feedback_gap(family, n)
        worst_gap = max(worst_gap, res.gap)
        worst_floor = min(
            worst_floor,
            res.C_fb - (res.uniform_value - 1e-9),
            res.C_nfb - (res.uniform_value - 1e-9),
        )
    dt = time.perf_counter() - t0
    ok = worst_gap <= 2e-3 and worst_floor >= 0.0 and dt < 300.0
    assert report(
        4,
        "feedback-gap",
        ok,
        f"3-member GE family, n<=3, max C_fb-C_nfb {worst_gap:.2e} <= 2e-3, "
        f"min slack over uniform value {worst_floor:.2e} >= 0, {dt:.1f}s < 300s",
    )


def test_criterion_05_bound_suites():
    cont = suite_continuity_lemma(instances=100)
    gap = suite_state_gap(instances=100)
    expo = suite_exponents(instances=100)
    # alternates (1,1) and (1,2), so 200 instances is 100 sweeps per pair
    supa = suite_superadditivity(instances=200, slack=1e-3)
    parts = {"continuity": cont, "state-gap": gap, "exponents": expo, "superadditivity": supa}
    ok = all(r.passed and r.violations == 0 for r in parts.values())
    detail = ", ".join(f"{k} 0/{r.instances}" for k, r in parts.items())
    assert report(5, "bound-suite", ok, f"violations {detail}")


def test_criterion_06_merge_bounds():
    violations = 0
    checked = 0

    def check(rankings):
        nonlocal violations, checked
        merged = merge_rankings(rankings)
        big_k = len(rankings)
        if sorted(merged.ordered_keys) != sorted(rankings[0].ordered_keys):
            violations += 1
        for key in merged.ordered_keys:
            mu = merged.rank(key)
            for k, r in enumerate(rankings, start=1):
                if mu > (r.rank(key) - 1) * big_k + k:
                    violations += 1
            if mu > big_k * min(r.rank(key) for r in rankings):
                violations += 1
            checked += 1

    # every ranking combination is feasible up to |B|=4
    for b in (2, 3, 4):
        perms = [RankingFunction(ordered_keys=p) for p in itertools.permutations(range(b))]
        for big_k in (1, 2, 3):
            for combo in itertools.product(perms, repeat=big_k):
                check(list(combo))
    # |B| in {5, 6}: rankings induced by random log-likelihood draws
    rng = np.random.default_rng(1006)
    for b in (5, 6):
        for big_k in (1, 2, 3):
            for _ in range(200):
                lls = rng.normal(size=(big_k, b))
                rankings = [
                    RankingFunction(ordered_keys=tuple(np.lexsort((np.arange(b), -lls[k]))))
                    for k in range(big_k)
                ]
                check(rankings)

    # K=1 merged decoding is plain maximum likelihood, bitwise
    mismatches = 0
    rows_done = 0
    for i in range(5):
        fsc = random_fsc(rng, 2, 2, 2)
        fb = identity_feedback(fsc.outputs)
        cb = sample_codebook(random_policy(4, 2, fb.z_card, rng), 3, rng)
        fam = CompoundFamily(members=(fsc,), labels=("only",))
        y_rows = rng.integers(0, 2, size=(200, 4))
        ml_rows = MLDecoder(fsc, fb).decode_rows(cb, y_rows)
        uni_rows = UniversalDecoder(fam, fb).decode_rows(cb, y_rows)
        mismatches += int((ml_rows != uni_rows).sum())
        for y in y_rows:
            if ml_decode(cb, y, fsc, fb) != universal_decode(cb, y, fam, fb):
                mismatches += 1
            rows_done += 1
    ok = violations == 0 and mismatches == 0 and rows_done == 1000
    assert report(
        6,
        "merge-bounds",
        ok,
        f"{checked} (key, ranking-set) checks, {violations} violations; "
        f"K=1 vs ml {mismatches} mismatches over {rows_done} sequences",
    )


def test_criterion_07_burst_truncation_demo():
    t0 = time.perf_counter()
    row = example1_row(run_trials(example1_config(8, 8, 100_000, seed=4)), 8, 8)
    dt = time.perf_counter() - t0
    expected = (1.0 - 2.0 ** -8) ** 8
    ok = (
        abs(row.all_bad_exact - expected) < 1e-15
        and abs(row.all_bad_freq - expected) <= 3.0 * row.all_bad_sigma
        and row.all_bad_freq >= 0.5
        and row.error_rate >= 0.25 - 3.0 * row.error_sigma
        and dt < 60.0
    )
    assert report(
        7,
        "burst-truncation",
        ok,
        f"all-bad freq {row.all_bad_freq:.4f} vs exact {expected:.4f} "
        f"(3 sigma {3 * row.all_bad_sigma:.4f}), error rate {row.error_rate:.4f} >= "
        f"{0.25 - 3 * row.error_sigma:.4f}, {dt:.1f}s < 60s at 1e5 trials",
    )


def test_criterion_08_zero_capacity():
    res = suite_zero_capacity(n_max=3)
    family = zero_capacity_family()
    fb = identity_feedback(family.members[0].outputs)
    witness = zero_capacity_witness(family.member("bsc-0.5"), fb, n=3)
    ok = res.passed and res.violations == 0 and witness.confirmed
    assert report(
        8,
        "zero-capacity",
        ok,
        f"max certified upper bound {res.worst:.2e} <= GAP_TOL = {GAP_TOL:.0e} for n<=3, "
        f"with and without feedback; witness confirmed={witness.confirmed}",
    )


def test_criterion_09_estimation():
    fsc = bsc(0.1)
    worst_excess = -math.inf
    for m, eps1 in ((100, 0.3), (200, 0.2), (500, 0.15)):
        rate, bound = empirical_violation_rate(fsc, 0, m, eps1, trials=10_000, seed=m)
        assert bound == sanov_pinsker_bound(m, 2, eps1)
        sigma = math.sqrt(max(rate * (1.0 - rate), 1e-12) / 10_000)
        worst_excess = max(worst_excess, rate - 3.0 * sigma - bound)

    fam = CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("p10", "p20"))
    res = two_phase_scheme(fam, "p10", m_train=2000, n_total=100_000, trials=100, seed=9)
    target = (1.0 - 2000 / 100_000) * (LN2 - binary_entropy_nats(0.1))
    dev = abs(res.achieved_mean - target)
    ok = worst_excess <= 0.0 and dev <= 0.01
    assert report(
        9,
        "estimation",
        ok,
        f"type concentration max (rate - 3 sigma - bound) {worst_excess:.2e} <= 0; "
        f"two-phase mean {res.achieved_mean:.4f} vs (1-M/n)C {target:.4f} nats, "
        f"dev {dev:.4f} <= 0.01 over 100 trials",
    )


def test_criterion_10_monte_carlo_vs_exact():
    rng = np.random.default_rng(1010)
    trials = 20_000
    worst_z = 0.0
    for i in range(20):
        n = 3 if i % 2 == 0 else 4
        kind = i % 3
        if kind == 0:
            fsc = bsc(0.08 + 0.015 * i)
        elif kind == 1:
            fsc = random_fsc(rng, 2, 2, 2)
        else:
            fsc = make_gilbert_elliot(
                GilbertElliotParams(
                    g=float(rng.uniform(0.2, 0.8)),
                    b=float(rng.uniform(0.2, 0.8)),
                    p_g=float(rng.uniform(0.05, 0.2)),
                    p_b=float(rng.uniform(0.3, 0.5)),
                )
            )
        fb = identity_feedback(fsc.outputs)
        cb = sample_codebook(random_policy(n, 2, fb.z_card, rng), 2 + i % 3, rng)
        # second member over the same alphabets, biased away from the truth
        flat = fsc.kernel.reshape(fsc.n_states, 2, -1)
        noise = rng.dirichlet(np.ones(flat.shape[-1]), size=(fsc.n_states, 2))
        alt = FscSpec(
            states=fsc.states,
            inputs=fsc.inputs,
            outputs=fsc.outputs,
            kernel=(0.6 * flat + 0.4 * noise).reshape(fsc.kernel.shape),
        )
        if i % 2 == 0:
            fam = CompoundFamily(members=(fsc,), labels=("true",))
            decoder_name = "ml"
            decoder = MLDecoder(fsc, fb)
        else:
            # merged decoder ranks with the first member, which is not the truth
            fam = CompoundFamily(members=(alt, fsc), labels=("alt", "true"))
            decoder_name = "universal"
            decoder = UniversalDecoder(fam, fb)
        cfg = TrialConfig(
            family=fam,
            true_label="true",
            codebook=cb,
            feedback=fb,
            decoder=decoder_name,
            trials=trials,
            seed=500 + i,
            s0=0,
        )
        mc = run_trials(cfg).error_rate
        exact = exact_error_probability(cb, fsc, 0, fb, decoder)
        assert fsc.n_outputs ** n <= 4096
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        z = abs(mc - exact) / sigma if sigma > 0 else (0.0 if mc == exact else math.inf)
        worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    assert report(
        10,
        "monte-carlo-vs-exact",
        ok,
        f"20 instances (ml and universal decoders), worst |mc - exact| = {worst_z:.2f} sigma <= 3",
    )
