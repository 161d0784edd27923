"""Finite-state channels, compound families, and feedback alphabets.

A channel is a kernel P(y, s_next | x, s_prev) over finite alphabets. A
compound family is a finite set of such kernels sharing alphabets; which
member is in effect is unknown to the encoder and decoder. Feedback is a
deterministic map from the output alphabet to a (possibly smaller) feedback
alphabet, applied symbol by symbol with unit delay.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, NoStationaryError, NotMarkovianError, ValidationError

ROW_SUM_TOL = 1e-9
STATE_MARGINAL_TOL = 1e-9
STATIONARY_TOL = 1e-10
QUANTIZE_MEMBER_CAP = 200_000  # most members quantize_family enumerates


def _json_alphabet(d: dict, key: str) -> tuple:
    """An alphabet field of a JSON object; it must be an array, since a string
    would otherwise be split into one symbol per character."""
    value = d[key]
    if not isinstance(value, list):
        raise ValidationError(f"{key!r} must be a JSON array, not {type(value).__name__}")
    return tuple(value)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FscSpec:
    """Finite-state channel kernel, indexed kernel[s_prev, x, y, s_next].

    Every (s_prev, x) slice must be a probability distribution over
    (y, s_next); rows are validated to within ROW_SUM_TOL at construction.
    """

    states: tuple
    inputs: tuple
    outputs: tuple
    kernel: np.ndarray

    def __post_init__(self):
        states = tuple(self.states)
        inputs = tuple(self.inputs)
        outputs = tuple(self.outputs)
        if not states or not inputs or not outputs:
            raise ValidationError("alphabets must be non-empty")
        kernel = np.asarray(self.kernel, dtype=float)
        want = (len(states), len(inputs), len(outputs), len(states))
        if kernel.shape != want:
            raise ValidationError(f"kernel shape {kernel.shape} != {want}")
        # a copy, so the caller's array stays writable when this one is frozen
        clipped = np.clip(kernel, 0.0, None)
        dev = clipped.sum(axis=(2, 3))
        dev -= 1.0
        np.abs(dev, out=dev)
        # NaN and +-inf fail one of these two comparisons, as in
        # CausalConditioning; the separate checks run only to name what failed
        if not (kernel.min() >= -1e-15 and dev.max() <= ROW_SUM_TOL):
            if not np.isfinite(kernel).all() or (kernel < -1e-15).any():
                raise ValidationError("kernel entries must be finite and non-negative")
            raise ValidationError("kernel rows must sum to 1 per (s_prev, x)")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "kernel", _freeze(clipped))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def to_dict(self) -> dict:
        return {
            "states": list(self.states),
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "kernel": self.kernel.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FscSpec":
        if not isinstance(d, dict):
            raise ValidationError("channel JSON must be an object")
        try:
            states, inputs, outputs = (_json_alphabet(d, k) for k in ("states", "inputs", "outputs"))
            kernel = np.asarray(d["kernel"], dtype=float)
        except KeyError as e:
            raise ValidationError(f"channel dict missing key {e}") from e
        except (TypeError, ValueError) as e:  # a malformed field, e.g. a ragged kernel
            raise ValidationError(f"channel dict has a malformed field: {e}") from e
        return cls(states=states, inputs=inputs, outputs=outputs, kernel=kernel)


@dataclass(frozen=True, eq=False)
class CompoundFamily:
    """Finite set of channels over identical alphabets, with string labels."""

    members: tuple
    labels: tuple

    def __post_init__(self):
        members = tuple(self.members)
        labels = tuple(str(x) for x in self.labels)
        if not members:
            raise ValidationError("family must be non-empty")
        if len(labels) != len(members):
            raise ValidationError("labels and members must align")
        if len(set(labels)) != len(labels):
            raise ValidationError("labels must be distinct")
        first = members[0]
        for m in members[1:]:
            if (m.states, m.inputs, m.outputs) != (first.states, first.inputs, first.outputs):
                raise ValidationError("family members must share alphabets")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(zip(self.labels, self.members))

    def member(self, label: str) -> FscSpec:
        try:
            return self.members[self.labels.index(label)]
        except ValueError:
            raise ValidationError(f"no member labelled {label!r}") from None

    def to_list(self) -> list:
        out = []
        for label, m in self:
            d = m.to_dict()
            d["label"] = label
            out.append(d)
        return out

    @classmethod
    def from_list(cls, items: list) -> "CompoundFamily":
        if not isinstance(items, list) or not items:
            raise ValidationError("family JSON must be a non-empty array")
        members, labels = [], []
        for i, d in enumerate(items):
            members.append(FscSpec.from_dict(d))
            labels.append(d.get("label", f"member-{i}"))
        return cls(members=tuple(members), labels=tuple(labels))


@dataclass(frozen=True, eq=False)
class FeedbackMap:
    """Deterministic symbol-wise feedback z = f(y).

    table[y_index] gives the z index; the map must be total on the output
    alphabet. Identity feedback has z_alphabet equal to the output alphabet;
    a singleton z_alphabet models the no-feedback case.
    """

    z_alphabet: tuple
    table: np.ndarray

    def __post_init__(self):
        z_alphabet = tuple(self.z_alphabet)
        if not z_alphabet:
            raise ValidationError("feedback alphabet must be non-empty")
        table = np.asarray(self.table)
        if table.ndim != 1 or table.size == 0:
            raise ValidationError("feedback table must be a non-empty vector")
        if table.dtype.kind not in "iu":  # a cast would truncate 0.5 to 0
            raise ValidationError(f"feedback table entries must be integers, not {table.dtype}")
        table = table.astype(np.int64)
        if table.min() < 0 or table.max() >= len(z_alphabet):
            raise ValidationError("feedback table entries outside z alphabet")
        table.setflags(write=False)
        object.__setattr__(self, "z_alphabet", z_alphabet)
        object.__setattr__(self, "table", table)

    @property
    def z_card(self) -> int:
        return len(self.z_alphabet)

    def to_dict(self) -> dict:
        return {"z_alphabet": list(self.z_alphabet), "map": self.table.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FeedbackMap":
        if not isinstance(d, dict):
            raise ValidationError("feedback JSON must be an object")
        try:
            z_alphabet, table = _json_alphabet(d, "z_alphabet"), np.asarray(d["map"])
        except KeyError as e:
            raise ValidationError(f"feedback dict missing key {e}") from e
        except (TypeError, ValueError) as e:
            raise ValidationError(f"feedback dict has a malformed field: {e}") from e
        return cls(z_alphabet=z_alphabet, table=table)


def identity_feedback(outputs) -> FeedbackMap:
    outputs = tuple(outputs)
    return FeedbackMap(z_alphabet=outputs, table=np.arange(len(outputs)))


def no_feedback(outputs) -> FeedbackMap:
    outputs = tuple(outputs)
    return FeedbackMap(z_alphabet=(0,), table=np.zeros(len(outputs), dtype=np.int64))


@dataclass(frozen=True)
class GilbertElliotParams:
    """Two-state channel: BSC(p_g) in the good state, BSC(p_b) in the bad one.

    g is the bad-to-good transition probability, b the good-to-bad one. The
    crossover used at time i is governed by the state before the transition.
    """

    g: float
    b: float
    p_g: float
    p_b: float

    def __post_init__(self):
        for name in ("g", "b", "p_g", "p_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name}={v} outside [0, 1]")


GE_STATES = ("G", "B")


def make_gilbert_elliot(params: GilbertElliotParams) -> FscSpec:
    """Build the Gilbert-Elliot kernel A(s_next|s_prev) * BSC_{s_prev}(y|x)."""
    trans = np.array([[1.0 - params.b, params.b], [params.g, 1.0 - params.g]])
    emit = np.empty((2, 2, 2))  # [s_prev, x, y]
    for si, p in enumerate((params.p_g, params.p_b)):
        emit[si] = np.array([[1.0 - p, p], [p, 1.0 - p]])
    kernel = emit[:, :, :, None] * trans[:, None, None, :]
    return FscSpec(states=GE_STATES, inputs=(0, 1), outputs=(0, 1), kernel=kernel)


def make_memoryless(cond) -> FscSpec:
    """Single-state channel from a conditional table P(y|x) of shape (|X|, |Y|),
    with alphabets 0..|X|-1 and 0..|Y|-1."""
    cond = np.asarray(cond, dtype=float)
    if cond.ndim != 2:
        raise ValidationError("conditional table must be 2-D")
    nx, ny = cond.shape
    kernel = cond[None, :, :, None]
    return FscSpec(states=("s",), inputs=tuple(range(nx)), outputs=tuple(range(ny)), kernel=kernel)


def bsc(p: float) -> FscSpec:
    """Binary symmetric channel with crossover p, as a single-state kernel."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"crossover {p} outside [0, 1]")
    return make_memoryless([[1.0 - p, p], [p, 1.0 - p]])


def kernel_distance(a: FscSpec, b: FscSpec) -> float:
    """Max over (s_prev, x) of the L1 distance between kernel rows."""
    if a.kernel.shape != b.kernel.shape:
        raise ValidationError("kernels must share shape")
    return float(np.abs(a.kernel - b.kernel).sum(axis=(2, 3)).max())


def quantize_family(k_grid: int, states, inputs, outputs) -> CompoundFamily:
    """Enumerate every kernel whose rows lie on the renormalized k_grid lattice.

    Each (s_prev, x) row ranges independently over the distinct renormalized
    grid rows; all-zero grid rows are replaced by the uniform row. Refuses
    (rather than truncates) when the member count would exceed
    QUANTIZE_MEMBER_CAP.
    """
    if k_grid < 2:
        raise ValidationError("k_grid must be >= 2")
    states, inputs, outputs = tuple(states), tuple(inputs), tuple(outputs)
    row_len = len(outputs) * len(states)
    n_rows = len(states) * len(inputs)
    if k_grid ** row_len > 2_000_000:
        raise CapExceededError(
            f"grid row enumeration k_grid**(|Y||S|) = {k_grid}**{row_len} is too large"
        )
    levels = np.arange(k_grid) / (k_grid - 1)
    seen = {}
    for combo in itertools.product(range(k_grid), repeat=row_len):
        row = levels[list(combo)]
        s = row.sum()
        row = np.full(row_len, 1.0 / row_len) if s <= 0 else row / s
        seen[tuple(np.round(row, 12))] = row
    rows = [seen[k] for k in sorted(seen)]
    count = len(rows) ** n_rows
    if count > QUANTIZE_MEMBER_CAP:
        raise CapExceededError(
            f"quantized family would have {count} members (cap {QUANTIZE_MEMBER_CAP})"
        )
    members, labels = [], []
    shape = (len(states), len(inputs), len(outputs), len(states))
    for idx, assignment in enumerate(itertools.product(range(len(rows)), repeat=n_rows)):
        kernel = np.stack([rows[r] for r in assignment]).reshape(shape)
        members.append(FscSpec(states=states, inputs=inputs, outputs=outputs, kernel=kernel))
        labels.append(f"q{idx:0{len(str(count - 1))}d}")
    return CompoundFamily(members=tuple(members), labels=tuple(labels))


def nearest_member(family: CompoundFamily, fsc: FscSpec) -> tuple[int, float]:
    """Index and distance of the family member closest to fsc in kernel_distance."""
    best_i, best_d = 0, math.inf
    for i, m in enumerate(family.members):
        d = kernel_distance(m, fsc)
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def state_transition_matrix(fsc: FscSpec) -> np.ndarray:
    """Input-independent state marginal T[s_prev, s_next], or NotMarkovianError
    when it varies with the input by more than STATE_MARGINAL_TOL."""
    per_input = fsc.kernel.sum(axis=2)  # [s_prev, x, s_next]
    spread = np.abs(per_input - per_input[:, :1, :]).max()
    if spread > STATE_MARGINAL_TOL:
        raise NotMarkovianError(
            f"state marginal varies with the input by {spread:.3g} (> {STATE_MARGINAL_TOL:g})"
        )
    return per_input.mean(axis=1)


def stationary_distribution(fsc: FscSpec) -> np.ndarray:
    """Unique stationary distribution of the state chain.

    Raises NoStationaryError for reducible or periodic chains, where the
    limiting state distribution is absent or non-unique, and when the solved
    law misses stationarity by more than STATIONARY_TOL in L1.
    """
    trans = state_transition_matrix(fsc)
    n = trans.shape[0]
    if n == 1:
        return np.array([1.0])
    eigvals = np.linalg.eigvals(trans)
    near_one = np.sum(np.abs(eigvals - 1.0) < 1e-8)
    if near_one != 1:
        raise NoStationaryError("state chain is reducible (eigenvalue 1 repeated)")
    others = eigvals[np.abs(eigvals - 1.0) >= 1e-8]
    if others.size and np.max(np.abs(others)) >= 1.0 - 1e-10:
        raise NoStationaryError("state chain is periodic (unit-modulus eigenvalue)")
    a = np.vstack([trans.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    if np.abs(pi @ trans - pi).sum() > STATIONARY_TOL:
        raise NoStationaryError("stationary solve failed to meet tolerance")
    return pi


def uniform_ergodicity_horizon(family: CompoundFamily, eps: float, max_n: int = 500):
    """Smallest M such that every member's n-step state law is within eps of
    its stationary distribution (max over initial states and entries) for all
    n >= M, with n = 0 meaning the point mass at the initial state.

    Returns None when max_n iterations do not suffice.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    overall = 0
    for label, m in family:
        trans = state_transition_matrix(m)
        pi = stationary_distribution(m)
        power = np.eye(trans.shape[0])
        last_bad = -1
        for n in range(max_n + 1):
            dev = np.abs(power - pi[None, :]).max()
            if dev > eps:
                last_bad = n
            power = power @ trans
        if last_bad == max_n:
            return None
        overall = max(overall, last_bad + 1)
    return overall


def load_family(path) -> CompoundFamily:
    with open(path) as fh:
        try:
            items = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid family JSON: {e}") from e
    if isinstance(items, dict):
        items = [items]
    return CompoundFamily.from_list(items)


def save_family(family: CompoundFamily, path) -> None:
    with open(path, "w") as fh:
        json.dump(family.to_list(), fh, indent=2)
        fh.write("\n")
