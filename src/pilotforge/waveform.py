"""Frequency grids, Zadoff-Chu pilots, multipath channels, and received-signal synthesis.

Everything here stays in the frequency domain: a layout describes one or more
subbands of OFDM subcarriers, pilots are unit-modulus sequences placed on a
binary per-group mask, and the received vector is the noisy superposition of
the code- and frequency-multiplexed user channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Subband",
    "BandLayout",
    "PilotSequence",
    "PatternSet",
    "largest_prime_leq",
    "make_zc_sequence",
    "orthogonal_sequence_family",
    "channel_frequency_response",
    "synthesize_received",
    "uniform_patterns",
    "check_budgets",
    "random_patterns",
    "check_path_draw",
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
        if not np.isfinite(self.center_hz):
            raise ValueError("subband center frequency must be finite")
        if not 0 < self.spacing_hz < np.inf:
            raise ValueError("subcarrier spacing must be positive and finite")
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
    def channel_frequencies_hz(self) -> np.ndarray:
        """Frequencies the channel model evaluates its paths at.

        Single band: the pinned n * f_s. Multiband: the absolute f(m, n), so
        the channel is phase-coherent across subbands.
        """
        return self.pinned_frequencies_hz if self.mode == "single" else self.frequencies_hz

    @cached_property
    def moment_weights(self) -> np.ndarray:
        """(N, 3 + 5M) per-subcarrier weights of the multiband two-path FIM moments.

        The first three columns are f^k (k = 0, 1, 2) of the pinned frequency
        f; then come the per-band weights 1, f, nf, nf f and nf^2 (nf = n
        f_s,m), weight by weight, each zero outside its band. A pattern's FIM
        gathers the rows of its support, so the table is built once per layout.
        """
        f = self.pinned_frequencies_hz
        spacings = np.array([b.spacing_hz for b in self.subbands])
        nf = self.local_index * spacings[self.band_index]
        per_band = np.stack([np.ones_like(f), f, nf, nf * f, nf**2], axis=-1)
        onehot = self.band_index[:, None] == np.arange(self.n_bands)
        table = (per_band[:, :, None] * onehot[:, None, :]).reshape(len(f), -1)
        return np.concatenate([np.stack([np.ones_like(f), f, f**2], axis=-1), table], axis=-1)


@dataclass(frozen=True)
class PilotSequence:
    """A unit-modulus pilot sequence."""

    values: np.ndarray

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
    return PilotSequence(np.exp(1j * gamma * n) * base)


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
        """The pattern whose group g holds the subcarriers columns[g]; ValueError
        where a group lists an index twice, which a mask would merge."""
        mask = np.zeros((n_subcarriers, len(columns)), dtype=np.uint8)
        for g, idx in enumerate(columns):
            idx = np.asarray(idx, dtype=int)
            if np.unique(idx).size != idx.size:
                raise ValueError(f"group {g} lists a subcarrier index twice")
            mask[idx, g] = 1
        return cls(mask)


def channel_frequency_response(layout: BandLayout, delays_s: np.ndarray,
                               gains: np.ndarray) -> np.ndarray:
    """Sum over paths of gain * exp(-j*2*pi*f*tau) at every
    ``layout.channel_frequencies_hz`` f."""
    delays_s = np.atleast_1d(np.asarray(delays_s, dtype=float))
    if not np.all(np.isfinite(delays_s)):
        raise ValueError("delays must be finite")
    gains = np.atleast_1d(np.asarray(gains, dtype=complex))
    return np.exp(-2j * np.pi * np.outer(layout.channel_frequencies_hz, delays_s)) @ gains


def synthesize_received(layout: BandLayout, patterns: PatternSet,
                        sequences: Sequence[PilotSequence], responses: np.ndarray,
                        noise_std: float, seed: int = 0) -> np.ndarray:
    """Received pilot vector y = sum_{g,z} diag(w_g * x_z) h_{g,z} + noise.

    responses is a (G', Z', N) stack whose row (g, z) is the channel h_{g,z}
    of user (g, z) on every subcarrier; G' and Z' may stop short of the
    pattern's groups and the sequences. The additive noise is circular
    complex Gaussian with per-element variance noise_std^2, drawn from seed;
    noise_std = 0 gives the noiseless superposition.
    """
    n = layout.n_total
    if patterns.n_subcarriers != n:
        raise ValueError("pattern size does not match the layout")
    for x in sequences:
        if len(x) != n:
            raise ValueError("pilot sequence length does not match the layout")
    responses = np.asarray(responses)
    shape = responses.shape
    if (len(shape) != 3 or shape[2] != n or shape[0] > patterns.n_groups
            or shape[1] > len(sequences)):
        raise ValueError("responses must be a (groups, codes, subcarriers) stack that "
                         "fits the layout, the pattern and the sequences")
    if not 0 <= noise_std < np.inf:
        raise ValueError("noise std must be non-negative and finite")
    y = np.zeros(n, dtype=complex)
    for g, z in np.ndindex(shape[:2]):
        y += patterns.column(g) * sequences[z].values * responses[g, z]
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        scale = noise_std / np.sqrt(2.0)
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


def check_budgets(budgets: Sequence[int], n_subcarriers: int) -> None:
    """Raise ValueError unless every group has a positive pilot budget and the
    budgets together fit on n_subcarriers non-overlapping subcarriers."""
    if any(p < 1 for p in budgets):
        raise ValueError("every group needs a positive pilot budget")
    if sum(budgets) > n_subcarriers:
        raise ValueError("total pilot budget exceeds the number of subcarriers")


def random_patterns(layout: BandLayout, n_groups: int, budgets: Sequence[int],
                    seed: int = 0) -> PatternSet:
    """Baseline 2: a uniform draw over all non-overlapping fixed-budget masks."""
    n = layout.n_total
    check_budgets(budgets, n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cols, start = [], 0
    for p in budgets:
        cols.append(np.sort(perm[start:start + p]))
        start += p
    return PatternSet.from_indices(n, cols)


def check_path_draw(n_paths: int, tau_max_s: float, min_separation_s: float) -> None:
    """Raise ValueError unless ``draw_channels`` can draw n_paths >= 1 delays on
    [0, tau_max_s] a non-negative, finite min_separation_s apart."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if not 0 <= min_separation_s < np.inf:
        raise ValueError("minimum separation must be non-negative and finite")
    if min_separation_s * (n_paths - 1) >= tau_max_s:
        raise ValueError("minimum separation is incompatible with the delay window")


def draw_channels(n_groups: int, n_codes: int, n_paths: int, tau_max_s: float, *,
                  seed: int = 0, min_separation_s: float = 0.0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Parametric multipath draw: delays uniform on [0, tau_max], gains CN(0, 1).

    Returns (delays, gains), each of shape (n_groups, n_codes, n_paths); the
    delays of each user ascend. A positive min_separation_s redraws each
    user's delays until adjacent paths are at least that far apart (for
    experiments that presuppose resolvable paths). The inputs are checked
    by ``check_path_draw``.
    """
    check_path_draw(n_paths, tau_max_s, min_separation_s)
    rng = np.random.default_rng(seed)
    delays = np.empty((n_groups, n_codes, n_paths))
    gains = np.empty((n_groups, n_codes, n_paths), dtype=complex)
    for g, z in np.ndindex(n_groups, n_codes):
        while True:
            d = np.sort(rng.uniform(0.0, tau_max_s, n_paths))
            if n_paths == 1 or np.min(np.diff(d)) >= min_separation_s:
                break
        delays[g, z] = d
        gains[g, z] = (rng.standard_normal(n_paths)
                       + 1j * rng.standard_normal(n_paths)) / np.sqrt(2.0)
    return delays, gains
