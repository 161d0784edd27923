"""Ready-made channel families used by the CLI and the verification suites."""

from __future__ import annotations

from .channel import CompoundFamily, GilbertElliotParams, bsc, make_gilbert_elliot
from .errors import ValidationError


def burst_family(theta_max: int = 8) -> CompoundFamily:
    """Gilbert-Elliot members with g = b = 2^-theta, a clean good state and a
    coin-flip bad state. Slow members (large theta) barely leave the state
    they started in."""
    if theta_max < 1:
        raise ValidationError("theta_max must be >= 1")
    members = []
    labels = []
    for theta in range(1, theta_max + 1):
        rate = 2.0 ** (-theta)
        members.append(make_gilbert_elliot(GilbertElliotParams(g=rate, b=rate, p_g=0.0, p_b=0.5)))
        labels.append(f"theta-{theta}")
    return CompoundFamily(members=tuple(members), labels=tuple(labels))


def bsc_pair() -> CompoundFamily:
    """Two binary symmetric channels; the noisier one decides the compound value."""
    return CompoundFamily(members=(bsc(0.1), bsc(0.2)), labels=("bsc-0.1", "bsc-0.2"))


def ge_gap_family() -> CompoundFamily:
    """Three Gilbert-Elliot members with distinct mixing speeds and noise levels."""
    params = (
        GilbertElliotParams(g=0.3, b=0.2, p_g=0.05, p_b=0.4),
        GilbertElliotParams(g=0.5, b=0.5, p_g=0.1, p_b=0.3),
        GilbertElliotParams(g=0.1, b=0.4, p_g=0.0, p_b=0.45),
    )
    members = tuple(make_gilbert_elliot(p) for p in params)
    return CompoundFamily(members=members, labels=("ge-a", "ge-b", "ge-c"))


def zero_capacity_family() -> CompoundFamily:
    """A coin-flip member forces every rate to zero for the whole family."""
    return CompoundFamily(members=(bsc(0.5), bsc(0.35)), labels=("bsc-0.5", "bsc-0.35"))


PRESETS = {
    "example1": burst_family,
    "bsc-pair": bsc_pair,
    "ge-gap": ge_gap_family,
    "zero-capacity": zero_capacity_family,
}


def load_preset(name: str) -> CompoundFamily:
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValidationError(f"unknown preset {name!r}; known presets: {known}") from None
    return factory()
