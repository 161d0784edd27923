import json
import math

import numpy as np
import pytest

from compound_fsc import (
    CapExceededError,
    CompoundFamily,
    FeedbackMap,
    FscSpec,
    ValidationError,
    bsc,
    identity_feedback,
    load_family,
    no_feedback,
    save_family,
)
from compound_fsc.channel import (
    GilbertElliotParams,
    kernel_distance,
    make_gilbert_elliot,
    make_memoryless,
    nearest_member,
    quantize_family,
    state_transition_matrix,
    stationary_distribution,
    uniform_ergodicity_horizon,
)
from compound_fsc.errors import NoStationaryError, NotMarkovianError


def test_kernel_must_be_row_stochastic():
    bad = np.zeros((1, 2, 2, 1))
    bad[0, 0, 0, 0] = 0.9
    bad[0, 1, :, 0] = 0.5
    with pytest.raises(ValidationError):
        FscSpec(states=("s",), inputs=("0", "1"), outputs=("0", "1"), kernel=bad)


def test_kernel_negative_entry_rejected():
    k = np.zeros((1, 2, 2, 1))
    k[0, :, :, 0] = [[1.1, -0.1], [0.5, 0.5]]
    with pytest.raises(ValidationError):
        FscSpec(states=("s",), inputs=("0", "1"), outputs=("0", "1"), kernel=k)


def test_kernel_rejections_keep_their_messages():
    # each rejection keeps the message of the check that names it; the
    # kernel is bsc(0.1)'s, with row [0, 0, :, 0] replaced (the -1e-14 row
    # sums to 1, so only the sign check refuses it)
    for row, message in (
        ([math.nan, 0.1], "finite and non-negative"),
        ([math.inf, 0.1], "finite and non-negative"),
        ([-1e-14, 1.0 + 1e-14], "finite and non-negative"),
        ([0.9 + 2e-9, 0.1], "rows must sum to 1"),
    ):
        k = bsc(0.1).kernel.copy()
        k[0, 0, :, 0] = row
        with pytest.raises(ValidationError, match=message):
            FscSpec(states=("s",), inputs=("0", "1"), outputs=("0", "1"), kernel=k)
    # within both tolerances: a -1e-16 entry whose row still sums to 1 is
    # accepted and clipped, and the caller's array is neither frozen nor changed
    k = bsc(0.1).kernel.copy()
    k[0, 0, :, 0] = [-1e-16, 1.0 + 1e-16]
    fsc = FscSpec(states=("s",), inputs=("0", "1"), outputs=("0", "1"), kernel=k)
    assert fsc.kernel[0, 0, 0, 0] == 0.0 and not fsc.kernel.flags.writeable
    assert k[0, 0, 0, 0] == -1e-16 and k.flags.writeable


def test_gilbert_elliot_deterministic_alternation():
    fsc = make_gilbert_elliot(GilbertElliotParams(g=1.0, b=1.0, p_g=0.0, p_b=0.0))
    # output copies input, state flips every step
    for s in range(2):
        for x in range(2):
            assert fsc.kernel[s, x, x, 1 - s] == pytest.approx(1.0)
            assert fsc.kernel[s, x, 1 - x, :].sum() == 0.0


def test_gilbert_elliot_state_degenerate_is_bsc():
    p = 0.3
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.5, b=0.5, p_g=p, p_b=p))
    for s in range(2):
        for x in range(2):
            for y in range(2):
                for s2 in range(2):
                    want = 0.5 * (1 - p if x == y else p)
                    assert fsc.kernel[s, x, y, s2] == pytest.approx(want)


def test_gilbert_elliot_theta3_member():
    fsc = make_gilbert_elliot(GilbertElliotParams(g=2**-3, b=2**-3, p_g=0.0, p_b=0.5))
    # good state emits the input exactly and stays good w.p. 1 - 2^-3
    assert fsc.kernel[0, 0, 0, 0] == pytest.approx(0.875)
    assert fsc.kernel[0, 0, 0, 1] == pytest.approx(0.125)
    assert fsc.kernel[0, 0, 1, :].sum() == 0.0
    # bad state is a fair coin
    assert fsc.kernel[1, 0, 1, 1] == pytest.approx(0.5 * 0.875)


def test_gilbert_elliot_factorizes():
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.2, b=0.4, p_g=0.1, p_b=0.45))
    trans = state_transition_matrix(fsc)
    emit = fsc.kernel.sum(axis=3)  # (s_prev, x, y)
    rebuilt = emit[:, :, :, None] * trans[:, None, None, :]
    assert np.abs(rebuilt - fsc.kernel).max() < 1e-12


def test_make_memoryless_bsc_embedding():
    fsc = make_memoryless([[0.8, 0.2], [0.2, 0.8]])
    assert fsc.n_states == 1
    assert np.allclose(fsc.kernel[0, 0, :, 0], [0.8, 0.2])
    assert np.allclose(fsc.kernel[0, 1, :, 0], [0.2, 0.8])
    with pytest.raises(ValidationError):
        make_memoryless([[0.8, 0.1], [0.2, 0.8]])


def test_make_memoryless_identity_and_uniform():
    ident = make_memoryless(np.eye(3))
    assert np.allclose(ident.kernel[0, :, :, 0], np.eye(3))
    useless = make_memoryless(np.full((2, 2), 0.5))
    assert np.allclose(useless.kernel[0, :, :, 0], 0.5)


def test_channel_json_round_trip(tmp_path):
    fam = CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("a", "b"))
    path = tmp_path / "fam.json"
    save_family(fam, path)
    back = load_family(path)
    assert back.labels == ("a", "b")
    assert kernel_distance(back.members[0], fam.members[0]) == 0.0


def test_load_single_channel_dict_as_family(tmp_path):
    path = tmp_path / "one.json"
    d = bsc(0.25).to_dict()
    d["label"] = "solo"
    path.write_text(json.dumps(d))
    fam = load_family(path)
    assert fam.labels == ("solo",)


def test_family_requires_shared_alphabets():
    tri = make_memoryless(np.eye(3))
    with pytest.raises(ValidationError):
        CompoundFamily(members=(bsc(0.1), tri), labels=("a", "b"))
    with pytest.raises(ValidationError):
        CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("a", "a"))


def test_feedback_maps():
    fsc = bsc(0.1)
    ident = identity_feedback(fsc.outputs)
    assert ident.z_card == 2
    assert list(ident.table) == [0, 1]
    none = no_feedback(fsc.outputs)
    assert none.z_card == 1
    assert list(none.table) == [0, 0]
    with pytest.raises(ValidationError):
        FeedbackMap(z_alphabet=("a", "b"), table=np.array([0, 2]))
    with pytest.raises(ValidationError):  # must not truncate to [0, 1]
        FeedbackMap.from_dict({"z_alphabet": [0, 1], "map": [0.5, 1]})
    with pytest.raises(ValidationError):
        FeedbackMap.from_dict({"z_alphabet": "ab", "map": [0, 1]})
    with pytest.raises(ValidationError):
        FeedbackMap(z_alphabet=(0, 1), table=np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        FeedbackMap(z_alphabet=(0, 1), table=np.array([False, True]))
    fb = FeedbackMap.from_dict({"z_alphabet": [0, 1], "map": [1, 0]})
    assert fb.table.tolist() == [1, 0]


@pytest.mark.parametrize("field", ["states", "inputs", "outputs"])
def test_channel_json_alphabet_must_be_array(field):
    d = bsc(0.1).to_dict()
    for bad in ("ab", "a", 2):
        with pytest.raises(ValidationError):
            FscSpec.from_dict(dict(d, **{field: bad}))
    assert FscSpec.from_dict(d).n_states == 1


def test_quantize_family_contains_snap_representative():
    fam = quantize_family(11, ("s",), ("0", "1"), ("0", "1"))
    rep = bsc(0.2)  # bsc(0.237) snapped to the 11-level grid
    idx, dist = nearest_member(fam, rep)
    assert dist == 0.0


def test_quantize_family_k2_contains_identity_channels():
    fam = quantize_family(2, ("s",), ("0", "1"), ("0", "1"))
    ident = make_memoryless(np.eye(2))
    anti = make_memoryless(np.eye(2)[::-1])
    assert nearest_member(fam, ident)[1] == 0.0
    assert nearest_member(fam, anti)[1] == 0.0


def test_quantize_family_nearest_distance_bound():
    k_grid = 21
    fam = quantize_family(k_grid, ("s",), ("0", "1"), ("0", "1"))
    rng = np.random.default_rng(3)
    bound = 2 * 1 / (k_grid - 1) + 1e-9  # |Y||S|/(K-1) plus renormalization slack
    for _ in range(10):
        rows = rng.dirichlet(np.ones(2), size=2)
        fsc = make_memoryless(rows)
        _, dist = nearest_member(fam, fsc)
        assert dist <= bound


def test_quantize_family_refuses_explosions():
    with pytest.raises(CapExceededError):
        quantize_family(101, ("a", "b"), ("0", "1"), ("0", "1"))


def test_stationary_distribution_closed_forms():
    sym = make_gilbert_elliot(GilbertElliotParams(g=0.5, b=0.5, p_g=0.1, p_b=0.2))
    assert np.allclose(stationary_distribution(sym), [0.5, 0.5])
    skew = make_gilbert_elliot(GilbertElliotParams(g=0.1, b=0.3, p_g=0.0, p_b=0.5))
    assert np.allclose(stationary_distribution(skew), [0.25, 0.75], atol=1e-12)
    single = bsc(0.2)
    assert np.allclose(stationary_distribution(single), [1.0])


def test_stationary_distribution_residual():
    fsc = make_gilbert_elliot(GilbertElliotParams(g=0.17, b=0.62, p_g=0.05, p_b=0.4))
    pi = stationary_distribution(fsc)
    t = state_transition_matrix(fsc)
    assert np.abs(pi @ t - pi).sum() <= 1e-10
    assert pi[0] == pytest.approx(0.17 / (0.17 + 0.62))


def test_input_dependent_transitions_rejected():
    k = np.zeros((2, 2, 2, 2))
    # state follows the input, so the marginal transition depends on x
    for s in range(2):
        for x in range(2):
            k[s, x, x, x] = 1.0
    fsc = FscSpec(states=("a", "b"), inputs=("0", "1"), outputs=("0", "1"), kernel=k)
    with pytest.raises(NotMarkovianError):
        state_transition_matrix(fsc)


def test_periodic_chain_has_no_stationary():
    fsc = make_gilbert_elliot(GilbertElliotParams(g=1.0, b=1.0, p_g=0.0, p_b=0.0))
    with pytest.raises(NoStationaryError):
        stationary_distribution(fsc)


def test_ergodicity_horizon_single_state():
    fam = CompoundFamily(members=(bsc(0.1),), labels=("m",))
    assert uniform_ergodicity_horizon(fam, 0.01) == 0


def test_ergodicity_horizon_one_step_mixer():
    ge = make_gilbert_elliot(GilbertElliotParams(g=0.5, b=0.5, p_g=0.0, p_b=0.5))
    fam = CompoundFamily(members=(ge,), labels=("m",))
    assert uniform_ergodicity_horizon(fam, 1e-6) == 1


def test_ergodicity_horizon_matches_matrix_powering():
    members, labels = [], []
    for theta in range(1, 9):
        r = 2.0**-theta
        members.append(make_gilbert_elliot(GilbertElliotParams(g=r, b=r, p_g=0.0, p_b=0.5)))
        labels.append(f"t{theta}")
    fam = CompoundFamily(members=tuple(members), labels=tuple(labels))
    eps = 0.01
    m_star = uniform_ergodicity_horizon(fam, eps, max_n=4000)

    def worst_dev(n):
        out = 0.0
        for member in fam.members:
            t = state_transition_matrix(member)
            pi = stationary_distribution(member)
            p_n = np.linalg.matrix_power(t, n)
            out = max(out, float(np.abs(p_n - pi[None, :]).max()))
        return out

    assert worst_dev(m_star) <= eps
    assert m_star == 0 or worst_dev(m_star - 1) > eps


def test_kernel_distance_properties():
    a, b = bsc(0.1), bsc(0.25)
    assert kernel_distance(a, a) == 0.0
    assert kernel_distance(a, b) == pytest.approx(0.3)  # L1 of (0.9,0.1) vs (0.75,0.25)
    assert kernel_distance(a, b) == kernel_distance(b, a)


def test_gilbert_elliot_params_validation():
    with pytest.raises(ValidationError):
        GilbertElliotParams(g=1.2, b=0.5, p_g=0.0, p_b=0.5)
    with pytest.raises(ValidationError):
        GilbertElliotParams(g=0.2, b=0.5, p_g=-0.1, p_b=0.5)
