"""Delay ambiguity function and integrated side-lobe level (ISL) in closed form.

The ambiguity function of a pattern column is chi(dtau) = w^T a(dtau); it does
not involve the pilot sequences (constant modulus cancels in the conjugate
product). The ISL integrates |chi|^2 over a symmetric delay region and
normalizes by the main-lobe energy; the integral collapses to a quadratic form
w^T G w with G assembled analytically from sine differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .waveform import BandLayout

__all__ = ["SidelobeRegion", "IslMatrix", "ambiguity_function", "isl_matrix"]

# below this frequency difference the sine quotient is evaluated at its
# removable-singularity limit 2(b - a)
_COINCIDENT_HZ = 1e-3


@dataclass(frozen=True)
class SidelobeRegion:
    """Symmetric delay region R_s = [-b, -a] u [a, b], in seconds."""

    a_s: float
    b_s: float

    def __post_init__(self):
        if not 0 < self.a_s < self.b_s < np.inf:
            raise ValueError("side-lobe region requires 0 < a < b < inf")

    @property
    def measure_s(self) -> float:
        return 2.0 * (self.b_s - self.a_s)


@dataclass(frozen=True)
class IslMatrix:
    """Precomputed G = int_{R_s} a(dtau) a(dtau)^H ddtau for one layout/region."""

    matrix: np.ndarray
    region: SidelobeRegion

    def isl(self, w: np.ndarray) -> float:
        """ISL of one pattern column (linear scale), as ``isl_many`` of a stack of one."""
        return float(self.isl_many(np.asarray(w)[None])[0])

    def isl_many(self, columns: np.ndarray) -> np.ndarray:
        """ISL of each of a stack of pattern columns, shape (Q, N); the one ISL path.

        The quadratic forms w^T G w come from one BLAS matrix product
        (Q, N) @ (N, N) and a row sum. BLAS may block the product differently
        for different stacks, so a row's last bits can depend on the other
        rows of the stack, not only differ from a column-by-column w @ G @ w.
        """
        cols = np.asarray(columns, dtype=float)
        p = cols.sum(axis=1)
        if np.any(p == 0):
            raise ValueError("ISL of an all-zero pattern column is undefined")
        quad = ((cols @ self.matrix) * cols).sum(axis=1)
        return quad / (self.region.measure_s * p * p)


def ambiguity_function(layout: BandLayout, w: np.ndarray, delta_tau_s) -> complex | np.ndarray:
    """Ambiguity function chi(dtau) = w^T a(dtau) of a pattern column.

    Accepts a scalar or an array of delay mismatches; the steering phases use
    the pinned frequency convention (first center at zero), which leaves |chi|
    untouched and keeps chi(0) = sum(w) real.
    """
    w = np.asarray(w)
    if w.shape != (layout.n_total,):
        raise ValueError("pattern column length does not match the layout")
    f_sup = layout.pinned_frequencies_hz[w != 0]
    dt = np.asarray(delta_tau_s, dtype=float)
    chi = np.exp(-2j * np.pi * np.multiply.outer(dt, f_sup)).sum(axis=-1)
    return complex(chi) if dt.ndim == 0 else chi


def _sine_quotient(delta_f: np.ndarray, region: SidelobeRegion) -> np.ndarray:
    """[sin(2 pi df b) - sin(2 pi df a)] / (pi df), with the df -> 0 limit."""
    out = np.full(delta_f.shape, region.measure_s)
    nz = np.abs(delta_f) >= _COINCIDENT_HZ
    dnz = delta_f[nz]
    out[nz] = (np.sin(2 * np.pi * dnz * region.b_s)
               - np.sin(2 * np.pi * dnz * region.a_s)) / (np.pi * dnz)
    return out


def isl_matrix(layout: BandLayout, region: SidelobeRegion) -> IslMatrix:
    """Side-lobe energy matrix G for a layout.

    G is the sine quotient of every pairwise difference of the pinned
    subcarrier frequencies, one dense matrix for any number of subbands. A
    single band's differences are multiples of f_s, so there G is symmetric
    Toeplitz.
    """
    f = layout.pinned_frequencies_hz
    return IslMatrix(_sine_quotient(f[:, None] - f[None, :], region), region)

