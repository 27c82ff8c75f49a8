"""Frequency grids, Zadoff-Chu pilots, multipath channels, and received-signal synthesis.

Everything here stays in the frequency domain: a layout describes one or more
subbands of OFDM subcarriers, pilots are unit-modulus sequences placed on a
binary per-group mask, and the received vector is the noisy superposition of
the code- and frequency-multiplexed user channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Subband",
    "BandLayout",
    "PilotSequence",
    "PatternSet",
    "ChannelParams",
    "largest_prime_leq",
    "make_zc_sequence",
    "orthogonal_sequence_family",
    "steering_vector",
    "channel_frequency_response",
    "synthesize_received",
    "uniform_patterns",
    "random_patterns",
    "draw_channels",
]


def largest_prime_leq(n: int) -> int:
    """Largest prime <= n (n >= 2), by trial division."""
    if n < 2:
        raise ValueError(f"no prime <= {n}")
    for cand in range(n, 1, -1):
        if cand in (2, 3):
            return cand
        if cand % 2 == 0:
            continue
        if all(cand % d for d in range(3, int(cand**0.5) + 1, 2)):
            return cand
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class Subband:
    """One contiguous block of subcarriers.

    Attributes
    ----------
    center_hz : float
        Absolute center frequency f_c of the subband.
    spacing_hz : float
        Subcarrier spacing f_s.
    n_subcarriers : int
        Number of subcarriers in the subband.
    """

    center_hz: float
    spacing_hz: float
    n_subcarriers: int

    def __post_init__(self):
        if self.spacing_hz <= 0:
            raise ValueError("subcarrier spacing must be positive")
        if self.n_subcarriers < 1:
            raise ValueError("subband needs at least one subcarrier")


@dataclass(frozen=True)
class BandLayout:
    """Frequency grid of the pilot system, single-band or multiband.

    Single-band layouts index subcarriers n = 0 .. N-1 relative to the band
    edge. Multiband layouts require an odd subcarrier count per subband and
    index each symmetrically around its center: n = -(N_m-1)/2 .. (N_m-1)/2.
    Flattened vectors run over subbands in ascending center frequency,
    subcarriers ascending in n, so the absolute frequency
    f(m, n) = f_c,m + n * f_s,m is strictly increasing along the flattened
    index.
    """

    subbands: tuple[Subband, ...]
    mode: str = "single"

    def __post_init__(self):
        if self.mode not in ("single", "multi"):
            raise ValueError(f"unknown layout mode {self.mode!r}")
        if self.mode == "single" and len(self.subbands) != 1:
            raise ValueError("single-band layout must have exactly one subband")
        if self.mode == "multi":
            if len(self.subbands) < 2:
                raise ValueError("multiband layout needs at least two subbands")
            odd = [b.n_subcarriers % 2 == 1 for b in self.subbands]
            if not all(odd):
                raise ValueError("multiband subband sizes must be odd so the "
                                 "centered index convention is symmetric")
        f = self.frequencies_hz
        if np.any(np.diff(f) <= 0):
            raise ValueError("subbands overlap or are not in ascending frequency order")

    @classmethod
    def single(cls, n_subcarriers: int, spacing_hz: float, center_hz: float = 0.0) -> "BandLayout":
        return cls((Subband(center_hz, spacing_hz, n_subcarriers),), mode="single")

    @classmethod
    def multiband(cls, subbands: Sequence[Subband]) -> "BandLayout":
        ordered = tuple(sorted(subbands, key=lambda b: b.center_hz))
        return cls(ordered, mode="multi")

    @property
    def n_bands(self) -> int:
        return len(self.subbands)

    @property
    def n_total(self) -> int:
        return sum(b.n_subcarriers for b in self.subbands)

    def _local_indices(self, band: Subband) -> np.ndarray:
        if self.mode == "single":
            return np.arange(band.n_subcarriers)
        return np.arange(band.n_subcarriers) - (band.n_subcarriers - 1) // 2

    @cached_property
    def band_index(self) -> np.ndarray:
        """Subband id (0-based) of each flattened position."""
        return np.repeat(np.arange(self.n_bands), [b.n_subcarriers for b in self.subbands])

    @cached_property
    def local_index(self) -> np.ndarray:
        """Per-position local subcarrier index n under the layout's convention."""
        return np.concatenate([self._local_indices(b) for b in self.subbands])

    @cached_property
    def frequencies_hz(self) -> np.ndarray:
        """Absolute subcarrier frequencies f(m, n) = f_c,m + n * f_s,m, flattened."""
        return np.concatenate(
            [b.center_hz + self._local_indices(b) * b.spacing_hz for b in self.subbands]
        )

    @cached_property
    def pinned_frequencies_hz(self) -> np.ndarray:
        """Frequencies with the first center pinned to zero.

        This is the convention every estimation-side computation uses: in the
        single-band case it reduces to n * f_s, and in the multiband case it
        keeps the Fisher information of the delay/phase parameters finite by
        absorbing the common carrier phase into the path gains.
        """
        return self.frequencies_hz - self.subbands[0].center_hz

    @cached_property
    def spacing_per_position_hz(self) -> np.ndarray:
        """Subcarrier spacing of the owning subband, per flattened position."""
        return np.repeat([b.spacing_hz for b in self.subbands],
                         [b.n_subcarriers for b in self.subbands])


@dataclass(frozen=True)
class PilotSequence:
    """A unit-modulus pilot sequence and its cyclic-shift parameters."""

    values: np.ndarray
    root: int
    shift_index: int
    shift_rad_per_index: float

    def __len__(self) -> int:
        return len(self.values)


def make_zc_sequence(length: int, root: int, shift_index: int = 0) -> PilotSequence:
    """Zadoff-Chu pilot of prime length cyclically extended to `length`.

    The base sequence x_u(n) = exp(-j*pi*u*n*(n+1)/N_zc) is built at the
    largest prime N_zc <= length, extended periodically, and rotated by the
    cyclic-shift phase ramp exp(j * 2*pi*k/length * n). Shifted copies with
    distinct k are exactly orthogonal over the full length.

    Parameters
    ----------
    length : int
        Output sequence length (>= 2).
    root : int
        Base-sequence index u; must be coprime with the prime length.
    shift_index : int
        Cyclic shift k in [0, length).

    Returns
    -------
    PilotSequence
    """
    if length < 2:
        raise ValueError("sequence length must be >= 2")
    n_zc = largest_prime_leq(length)
    if np.gcd(root, n_zc) != 1 or root % n_zc == 0:
        raise ValueError(
            f"root {root} is not coprime with the prime sequence length {n_zc}"
        )
    if not 0 <= shift_index < length:
        raise ValueError(f"shift index {shift_index} outside [0, {length})")
    n = np.arange(length)
    base = np.exp(-1j * np.pi * root * ((n % n_zc) * (n % n_zc + 1)) / n_zc)
    gamma = 2.0 * np.pi * shift_index / length
    return PilotSequence(np.exp(1j * gamma * n) * base, root, shift_index, gamma)


def orthogonal_sequence_family(length: int, n_sequences: int, root: int = 1) -> list[PilotSequence]:
    """Maximally separated cyclic shifts of one base sequence.

    Shift k_z = z * floor(length / n_sequences) pushes the z-th user's energy
    length/(n_sequences) delay bins away from user 0, which is what the
    delay-domain gate relies on to separate code-multiplexed users.
    """
    if n_sequences < 1 or n_sequences > length:
        raise ValueError("need 1 <= n_sequences <= length")
    step = length // n_sequences
    return [make_zc_sequence(length, root, z * step) for z in range(n_sequences)]


@dataclass(frozen=True)
class PatternSet:
    """Binary pilot allocation mask, rows = flattened subcarriers, cols = groups."""

    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask)
        if m.ndim != 2:
            raise ValueError("pattern mask must be 2-D (subcarriers x groups)")
        self.check_masks(m)
        object.__setattr__(self, "mask", m.astype(np.uint8))

    @staticmethod
    def check_masks(masks: np.ndarray) -> None:
        """The structure checks of a mask, or of a stack of masks (..., N, G)."""
        if not ((masks == 0) | (masks == 1)).all():
            raise ValueError("pattern mask must be binary")
        taken = np.zeros(masks.shape[:-1], dtype=bool)
        for g in range(masks.shape[-1]):  # group by group: a sum over the short last axis is slow
            cell = masks[..., g] == 1
            if (taken & cell).any():
                raise ValueError("pattern rows must sum to at most 1 (non-overlap constraint)")
            taken |= cell

    @property
    def n_subcarriers(self) -> int:
        return self.mask.shape[0]

    @property
    def n_groups(self) -> int:
        return self.mask.shape[1]

    @property
    def budgets(self) -> np.ndarray:
        return self.mask.sum(axis=0)

    def column(self, g: int) -> np.ndarray:
        return self.mask[:, g]

    @classmethod
    def from_indices(cls, n_subcarriers: int, columns: Sequence[Sequence[int]]) -> "PatternSet":
        mask = np.zeros((n_subcarriers, len(columns)), dtype=np.uint8)
        for g, idx in enumerate(columns):
            mask[np.asarray(idx, dtype=int), g] = 1
        return cls(mask)


@dataclass(frozen=True)
class ChannelParams:
    """Multipath parameters of every (group, code) user plus the noise level.

    Attributes
    ----------
    delays_s : mapping (g, z) -> ndarray of path delays, seconds
    gains : mapping (g, z) -> ndarray of complex path gains
    noise_std : float
        Per-element complex noise standard deviation (total variance sigma^2).
    phase_offsets_rad, timing_offsets_s : ndarray or None
        Per-subband distortions (multiband only); phase of the first band is
        pinned to zero by convention.
    """

    delays_s: Mapping[tuple[int, int], np.ndarray]
    gains: Mapping[tuple[int, int], np.ndarray]
    noise_std: float
    phase_offsets_rad: np.ndarray | None = None
    timing_offsets_s: np.ndarray | None = None

    def __post_init__(self):
        if self.noise_std < 0:
            raise ValueError("noise std must be >= 0")
        for key, d in self.delays_s.items():
            if np.any(np.asarray(d) < 0):
                raise ValueError(f"negative path delay for user {key}")
            if len(d) != len(self.gains[key]):
                raise ValueError(f"delay/gain count mismatch for user {key}")
        if self.phase_offsets_rad is not None and self.phase_offsets_rad[0] != 0.0:
            raise ValueError("phase offset of the first subband must be pinned to 0")

    def distortions(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self.phase_offsets_rad is None and self.timing_offsets_s is None:
            return None
        return self.phase_offsets_rad, self.timing_offsets_s

    def users(self) -> list[tuple[int, int]]:
        return sorted(self.delays_s.keys())


def _distortion_phase(layout: BandLayout,
                      distortions: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Per-position factor exp(-j*2*pi*n*f_s,m*delta_m) * exp(j*phi_m)."""
    if distortions is None:
        return np.ones(layout.n_total, dtype=complex)
    phi, delta = distortions
    phi = np.zeros(layout.n_bands) if phi is None else np.asarray(phi, dtype=float)
    delta = np.zeros(layout.n_bands) if delta is None else np.asarray(delta, dtype=float)
    if len(phi) != layout.n_bands or len(delta) != layout.n_bands:
        raise ValueError("one phase and one timing offset per subband required")
    b = layout.band_index
    ramp = layout.local_index * layout.spacing_per_position_hz * delta[b]
    return np.exp(1j * (phi[b] - 2.0 * np.pi * ramp))


def steering_vector(layout: BandLayout, tau_s: float,
                    distortions: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Frequency-domain steering vector of a single path delay.

    Single band: element n is exp(-j*2*pi*n*f_s*tau). Multiband: element
    (m, n) is exp(-j*2*pi*f(m,n)*tau) times the per-band phase/timing
    distortion factors, flattened in canonical order.
    """
    if not np.isfinite(tau_s):
        raise ValueError("delay must be finite")
    if distortions is not None and layout.mode != "multi":
        raise ValueError("phase/timing distortions only apply to multiband layouts")
    if layout.mode == "single":
        f = layout.pinned_frequencies_hz
        return np.exp(-2j * np.pi * f * tau_s)
    f = layout.frequencies_hz
    return np.exp(-2j * np.pi * f * tau_s) * _distortion_phase(layout, distortions)


def channel_frequency_response(layout: BandLayout, delays_s: np.ndarray, gains: np.ndarray,
                               distortions: tuple[np.ndarray, np.ndarray] | None = None
                               ) -> np.ndarray:
    """Sum of gain-weighted steering vectors over the full grid."""
    delays_s = np.atleast_1d(np.asarray(delays_s, dtype=float))
    gains = np.atleast_1d(np.asarray(gains, dtype=complex))
    f = layout.pinned_frequencies_hz if layout.mode == "single" else layout.frequencies_hz
    h = np.exp(-2j * np.pi * np.outer(f, delays_s)) @ gains
    if layout.mode == "multi":
        h = h * _distortion_phase(layout, distortions)
    elif distortions is not None:
        raise ValueError("phase/timing distortions only apply to multiband layouts")
    return h


def synthesize_received(layout: BandLayout, patterns: PatternSet,
                        sequences: Sequence[PilotSequence], channels: ChannelParams,
                        seed: int | None = 0) -> np.ndarray:
    """Received pilot vector y = sum_{g,z} diag(w_g * x_z) h_{g,z} + noise.

    The additive noise is circular complex Gaussian with per-element variance
    noise_std^2; a seed of None yields the noiseless superposition regardless
    of noise_std.
    """
    n = layout.n_total
    if patterns.n_subcarriers != n:
        raise ValueError("pattern size does not match the layout")
    for x in sequences:
        if len(x) != n:
            raise ValueError("pilot sequence length does not match the layout")
    y = np.zeros(n, dtype=complex)
    dist = channels.distortions()
    for (g, z) in channels.users():
        if g >= patterns.n_groups or z >= len(sequences):
            raise ValueError(f"user {(g, z)} outside the pattern/sequence dimensions")
        h = channel_frequency_response(layout, channels.delays_s[(g, z)],
                                       channels.gains[(g, z)], dist)
        y += patterns.column(g) * sequences[z].values * h
    if seed is not None and channels.noise_std > 0:
        rng = np.random.default_rng(seed)
        scale = channels.noise_std / np.sqrt(2.0)
        y += scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return y


def uniform_patterns(layout: BandLayout, n_groups: int,
                     budgets: Sequence[int] | None = None) -> PatternSet:
    """Baseline 1: each group takes a contiguous equal segment of the band,
    with its pilots evenly spaced inside the segment."""
    n = layout.n_total
    if budgets is None:
        budgets = [n // n_groups] * n_groups
    seg = n // n_groups
    cols = []
    for g, p in enumerate(budgets):
        if p > seg:
            raise ValueError(f"budget {p} exceeds the group's segment of {seg} subcarriers")
        start = g * seg
        idx = start + np.unique(np.round(np.arange(p) * seg / p).astype(int))
        if len(idx) != p:
            raise ValueError("uniform placement collides; choose a budget dividing the segment")
        cols.append(idx)
    return PatternSet.from_indices(n, cols)


def random_patterns(layout: BandLayout, n_groups: int, budgets: Sequence[int],
                    seed: int = 0) -> PatternSet:
    """Baseline 2: a uniform draw over all non-overlapping fixed-budget masks."""
    n = layout.n_total
    if sum(budgets) > n:
        raise ValueError("total pilot budget exceeds the number of subcarriers")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cols, start = [], 0
    for p in budgets:
        cols.append(np.sort(perm[start:start + p]))
        start += p
    return PatternSet.from_indices(n, cols)


def draw_channels(n_groups: int, n_codes: int, n_paths: int, tau_max_s: float,
                  noise_std: float, seed: int = 0,
                  min_separation_s: float = 0.0,
                  phase_offsets_rad: np.ndarray | None = None,
                  timing_offsets_s: np.ndarray | None = None) -> ChannelParams:
    """Parametric multipath draw: delays uniform on [0, tau_max], gains CN(0, 1).

    A positive min_separation_s redraws each user's delays until adjacent
    paths are at least that far apart (for experiments that presuppose
    resolvable paths).
    """
    if min_separation_s * (n_paths - 1) >= tau_max_s:
        raise ValueError("minimum separation is incompatible with the delay window")
    rng = np.random.default_rng(seed)
    delays, gains = {}, {}
    for g in range(n_groups):
        for z in range(n_codes):
            while True:
                d = np.sort(rng.uniform(0.0, tau_max_s, n_paths))
                if n_paths == 1 or np.min(np.diff(d)) >= min_separation_s:
                    break
            delays[(g, z)] = d
            gains[(g, z)] = (rng.standard_normal(n_paths)
                             + 1j * rng.standard_normal(n_paths)) / np.sqrt(2.0)
    return ChannelParams(delays, gains, noise_std, phase_offsets_rad, timing_offsets_s)
