"""Fisher information, delay-separation CRB, and the statistical resolution limit.

The two-path model has parameters [tau_1, tau_2, alpha^R (2), alpha^I (2)] in
the single-band case, extended by per-band phase offsets phi_2..phi_M and
timing offsets delta_1..delta_M (with a Gaussian prior on the latter) in the
multiband case. All information-matrix entries depend on the delays only
through tau_2 - tau_1, so a common delay shift never changes anything here.

The SRL is the smallest delay separation solving dtau = sqrt(CRB(dtau)); it is
located by a grid scan for sign changes of g(dtau) = dtau - sqrt(CRB(dtau))
followed by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .waveform import BandLayout

__all__ = [
    "FimSingleBand",
    "FimMultiband",
    "SrlResult",
    "SrlSearch",
    "fim_single",
    "fim_multiband",
    "crb_delta_tau",
    "crb_batch",
    "srl_search",
    "pattern_crb_provider",
    "srl_of_pattern",
    "srl_at_most",
]

DEFAULT_COND_CAP = 1e12


@dataclass(frozen=True)
class FimSingleBand:
    """6x6 information matrix for [tau_1, tau_2, a1^R, a2^R, a1^I, a2^I]."""

    matrix: np.ndarray
    spacing_hz: float
    noise_std: float
    gains: np.ndarray
    delta_tau_s: float


@dataclass(frozen=True)
class FimMultiband:
    """Information matrix for [tau (2), a^R (2), a^I (2), phi_2..phi_M, delta_1..delta_M].

    ``matrix`` is the sum of the observation part and the prior part; the
    prior contributes 1/prior_std^2 on each timing-offset diagonal entry only.
    """

    matrix: np.ndarray
    observation: np.ndarray
    noise_std: float
    gains: np.ndarray
    delta_tau_s: float
    prior_std_s: float
    n_bands: int

    @property
    def prior(self) -> np.ndarray:
        return self.matrix - self.observation


@dataclass(frozen=True)
class SrlSearch:
    """1-D search parameters for the SRL root finder, in seconds."""

    tau_lo_s: float = 0.05e-9
    tau_hi_s: float = 50e-9
    step_s: float = 0.01e-9
    tol_s: float = 1e-13

    def __post_init__(self):
        if not 0 < self.tau_lo_s < self.tau_hi_s:
            raise ValueError("need 0 < tau_lo < tau_hi")
        if self.step_s <= 0 or self.tol_s <= 0:
            raise ValueError("grid step and tolerance must be positive")

    def grid(self) -> np.ndarray:
        return np.arange(self.tau_lo_s, self.tau_hi_s + 0.5 * self.step_s, self.step_s)


@dataclass(frozen=True)
class SrlResult:
    """Outcome of the SRL search.

    ``srl_s`` is None when no sign change was found on the grid;
    ``below_range`` flags the case g(tau_lo) >= 0, i.e. the root lies below
    the search window (the separation is resolvable everywhere scanned).
    """

    srl_s: float | None
    crb_at_srl_s2: float | None
    roots_s: tuple[float, ...]
    search: SrlSearch
    below_range: bool = False

    @property
    def found(self) -> bool:
        return self.srl_s is not None


def _two_path_block(J: np.ndarray, f_support: np.ndarray, ephase: np.ndarray,
                    gains: np.ndarray, c: float) -> None:
    """Fill J[:, :6, :6], the [tau (2), a^R (2), a^I (2)] block, in place.

    Every entry is a linear functional of the moments sum_f f^k e^{j 2 pi f
    (tau_r - tau_s)} (k = 0, 1, 2): the plain sums sum_f f^k when r = s, and
    one matrix product per batch for r != s. ephase holds e^{j 2 pi f dtau},
    shape (B, S).
    """
    powers = np.stack([np.ones_like(f_support), f_support, f_support**2], axis=1)
    cross = ephase @ powers                      # (B, 3): tau_r - tau_s = dtau
    m = np.empty((len(ephase), 3, 2, 2), dtype=complex)  # moment k, path r, path s
    m[:, :, 0, 0] = m[:, :, 1, 1] = powers.sum(axis=0)
    m[:, :, 0, 1] = cross.conj()
    m[:, :, 1, 0] = cross
    ar = np.conj(gains)[:, None]                 # conj(alpha_r), down the rows
    tt = 8 * np.pi**2 * c * (ar * gains[None, :] * m[:, 2]).real
    tr = 4 * np.pi * c * (1j * ar * m[:, 1]).real
    ti = -4 * np.pi * c * (ar * m[:, 1]).real
    cc = 2 * c * m[:, 0].real
    ss = -2 * c * m[:, 0].imag                   # sum sin(2 pi f (tau_s - tau_r))
    J[:, :6, :6] = np.concatenate([
        np.concatenate([tt, tr, ti], axis=2),
        np.concatenate([tr.transpose(0, 2, 1), cc, ss], axis=2),
        np.concatenate([ti.transpose(0, 2, 1), -ss, cc], axis=2)], axis=1)


def _fim_single_batch(f_support: np.ndarray, noise_std: float, gains: np.ndarray,
                      delta_taus: np.ndarray) -> np.ndarray:
    """Stack of 6x6 single-band FIMs over a batch of delay separations.

    f_support holds the supported subcarrier frequencies n * f_s; every entry
    follows the closed-form expressions of the two-path expected Hessian.
    """
    dt = np.asarray(delta_taus, dtype=float)
    J = np.zeros((dt.shape[0], 6, 6))
    # e^{j 2 pi f (tau_r - tau_s)} for (r, s) = (2, 1); (1, 2) is its conjugate
    ephase = np.exp(2j * np.pi * dt[:, None] * f_support[None, :])  # (B, S)
    _two_path_block(J, f_support, ephase, np.asarray(gains, dtype=complex),
                    1.0 / noise_std**2)
    return J


def fim_single(w: np.ndarray, spacing_hz: float, noise_std: float, gains,
               delta_tau_s: float) -> FimSingleBand:
    """Single-band two-path FIM for one pattern column.

    The subcarrier index n runs 0..N-1 and only supported subcarriers
    contribute; the first path's delay does not enter (difference-only
    structure).
    """
    if noise_std <= 0:
        raise ValueError("noise std must be positive (the FIM diverges at zero noise)")
    w = np.asarray(w)
    if w.sum() == 0:
        raise ValueError("pattern column has no pilots")
    gains = np.asarray(gains, dtype=complex)
    if gains.shape != (2,):
        raise ValueError("the two-path model takes exactly two gains")
    f_support = np.flatnonzero(w) * spacing_hz
    J = _fim_single_batch(f_support, noise_std, gains, np.array([delta_tau_s]))[0]
    return FimSingleBand(J, spacing_hz, noise_std, gains, delta_tau_s)


def _fim_multiband_batch(f_support: np.ndarray, band_support: np.ndarray,
                         nloc_support: np.ndarray, band_spacings: np.ndarray,
                         n_bands: int, noise_std: float, gains: np.ndarray,
                         delta_taus: np.ndarray, prior_std_s: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of multiband FIMs (total, observation-only) over delay separations.

    f_support must already be pinned (first band center at zero). Parameter
    order: [tau_1, tau_2, a^R (2), a^I (2), phi_2..phi_M, delta_1..delta_M].
    """
    al = np.asarray(gains, dtype=complex)
    dt = np.asarray(delta_taus, dtype=float)
    c = 1.0 / noise_std**2
    b = dt.shape[0]
    dim = 6 + (n_bands - 1) + n_bands

    ephase = np.exp(2j * np.pi * dt[:, None] * f_support[None, :])  # (B, S)
    # path-sum profile H(n) = sum_k alpha_k e^{-j 2 pi f tau_k}, with tau = (0, dtau)
    H = al[0] + al[1] * ephase.conj()
    absH2 = np.abs(H) ** 2
    vr_pick = (np.ones_like(ephase), ephase)  # e^{j 2 pi f tau_r}

    J = np.zeros((b, dim, dim))
    _two_path_block(J, f_support, ephase, al, c)
    for r in range(2):
        vr_h = vr_pick[r] * H  # sum_k alpha_k e^{j 2 pi f (tau_r - tau_k)}
        for i in range(n_bands):
            m = band_support == i
            fs_i = band_spacings[i]
            nf = nloc_support[m] * fs_i
            if i >= 1:
                cphi = 6 + (i - 1)
                v = -4 * np.pi * c * np.sum(
                    f_support[m] * (np.conj(al[r]) * vr_h[:, m]).real, axis=1)
                J[:, r, cphi] = v
                J[:, cphi, r] = v
                v = 2 * c * np.sum((1j * vr_h[:, m]).real, axis=1)
                J[:, 2 + r, cphi] = v
                J[:, cphi, 2 + r] = v
                v = 2 * c * np.sum(vr_h[:, m].real, axis=1)
                J[:, 4 + r, cphi] = v
                J[:, cphi, 4 + r] = v
            cdel = 6 + (n_bands - 1) + i
            v = 8 * np.pi**2 * c * np.sum(
                nf * f_support[m] * (np.conj(al[r]) * vr_h[:, m]).real, axis=1)
            J[:, r, cdel] = v
            J[:, cdel, r] = v
            v = -4 * np.pi * c * np.sum((1j * nf * vr_h[:, m]).real, axis=1)
            J[:, 2 + r, cdel] = v
            J[:, cdel, 2 + r] = v
            v = -4 * np.pi * c * np.sum(nf * vr_h[:, m].real, axis=1)
            J[:, 4 + r, cdel] = v
            J[:, cdel, 4 + r] = v
    for i in range(n_bands):
        m = band_support == i
        nf = nloc_support[m] * band_spacings[i]
        cdel = 6 + (n_bands - 1) + i
        if i >= 1:
            cphi = 6 + (i - 1)
            J[:, cphi, cphi] = 2 * c * np.sum(absH2[:, m], axis=1)
            v = -4 * np.pi * c * np.sum(nf * absH2[:, m], axis=1)
            J[:, cphi, cdel] = v
            J[:, cdel, cphi] = v
        J[:, cdel, cdel] = 8 * np.pi**2 * c * np.sum(nf**2 * absH2[:, m], axis=1)

    J_obs = J.copy()
    didx = 6 + (n_bands - 1) + np.arange(n_bands)
    J[:, didx, didx] += 1.0 / prior_std_s**2
    return J, J_obs


def fim_multiband(layout: BandLayout, w: np.ndarray, noise_std: float, gains,
                  delta_tau_s: float, prior_std_s: float) -> FimMultiband:
    """Multiband two-path FIM with phase/timing nuisance parameters.

    The first band's center frequency is pinned to zero and phi_1 to 0, which
    keeps the matrix finite. Neither the first path's delay nor the true
    phase/timing offsets enter any entry (they cancel in every conjugate
    product); the timing prior adds 1/prior_std^2 on the delta diagonal.
    """
    if layout.mode != "multi":
        raise ValueError("fim_multiband needs a multiband layout")
    if noise_std <= 0:
        raise ValueError("noise std must be positive")
    if prior_std_s is None or prior_std_s <= 0:
        raise ValueError("timing-offset prior std must be positive")
    w = np.asarray(w)
    if w.sum() == 0:
        raise ValueError("pattern column has no pilots")
    gains = np.asarray(gains, dtype=complex)
    if gains.shape != (2,):
        raise ValueError("the two-path model takes exactly two gains")
    sup = w != 0
    spacings = np.array([sb.spacing_hz for sb in layout.subbands])
    J, J_obs = _fim_multiband_batch(
        layout.pinned_frequencies_hz[sup], layout.band_index[sup],
        layout.local_index[sup], spacings, layout.n_bands, noise_std, gains,
        np.array([delta_tau_s]), prior_std_s)
    return FimMultiband(J[0], J_obs[0], noise_std, gains, delta_tau_s,
                        prior_std_s, layout.n_bands)


def crb_batch(J: np.ndarray, cond_cap: float = DEFAULT_COND_CAP) -> np.ndarray:
    """CRB of tau_2 - tau_1 for a stack of FIMs, +inf where unresolvable.

    Rows/columns that are exactly zero (nuisance parameters of subbands the
    pattern never touches, which carry no prior) are dropped before inversion.
    The conditioning test runs on the Jacobi-scaled matrix D J D with unit
    diagonal: the raw FIM mixes seconds and unit gains, so its condition
    number reflects units rather than resolvability.
    """
    J = np.asarray(J, dtype=float)
    single = J.ndim == 2
    if single:
        J = J[None]
    b = J.shape[0]
    out = np.full(b, np.inf)
    # parameters with no information anywhere in the batch (nuisances of
    # untouched subbands) share one structural zero pattern; drop them once
    keep = ~np.all(J == 0.0, axis=(0, 1))
    if not (keep[0] and keep[1]):
        return out[0] if single else out
    Jr = J if keep.all() else J[:, keep][:, :, keep]
    diag = np.diagonal(Jr, axis1=1, axis2=2)
    ok = np.all(diag > 0, axis=1)
    if not np.any(ok):
        return out[0] if single else out
    ds = np.sqrt(np.where(diag > 0, diag, 1.0))
    Js = Jr / (ds[:, :, None] * ds[:, None, :])
    if not ok.all():
        Js[~ok] = np.eye(Jr.shape[1])  # placeholder keeps the batched algebra finite
    eig = np.linalg.eigvalsh(Js)
    ok &= (eig[:, 0] > 0) & (eig[:, -1] <= cond_cap * np.maximum(eig[:, 0], 1e-300))
    if np.any(ok):
        Ji = np.linalg.inv(Js[ok])
        d00 = ds[ok, 0]
        d11 = ds[ok, 1]
        val = (Ji[:, 0, 0] / d00**2 + Ji[:, 1, 1] / d11**2
               - (Ji[:, 0, 1] + Ji[:, 1, 0]) / (d00 * d11))
        out[np.flatnonzero(ok)[val > 0]] = val[val > 0]
    return out[0] if single else out


def crb_delta_tau(fim, cond_cap: float = DEFAULT_COND_CAP) -> float:
    """CRB of the delay separation: the (1,1)+(2,2)-(1,2)-(2,1) combination
    of the inverse FIM. Returns +inf when the FIM is unresolvable."""
    return float(crb_batch(fim.matrix if hasattr(fim, "matrix") else fim, cond_cap))


def pattern_crb_provider(layout: BandLayout, w: np.ndarray, noise_std: float, gains,
                         prior_std_s: float | None = None,
                         cond_cap: float = DEFAULT_COND_CAP
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """Batch dtau -> CRB callable for one pattern column under the offline model."""
    w = np.asarray(w)
    gains = np.asarray(gains, dtype=complex)
    if layout.mode == "single":
        f_support = np.flatnonzero(w) * layout.subbands[0].spacing_hz

        def provider(dtaus: np.ndarray) -> np.ndarray:
            J = _fim_single_batch(f_support, noise_std, gains, np.atleast_1d(dtaus))
            return crb_batch(J, cond_cap)

        return provider

    if prior_std_s is None or prior_std_s <= 0:
        raise ValueError("multiband SRL needs a positive timing-offset prior std")
    sup = w != 0
    f_sup = layout.pinned_frequencies_hz[sup]
    band_sup = layout.band_index[sup]
    nloc_sup = layout.local_index[sup]
    spacings = np.array([sb.spacing_hz for sb in layout.subbands])

    def provider(dtaus: np.ndarray) -> np.ndarray:
        J, _ = _fim_multiband_batch(f_sup, band_sup, nloc_sup, spacings,
                                    layout.n_bands, noise_std, gains,
                                    np.atleast_1d(dtaus), prior_std_s)
        return crb_batch(J, cond_cap)

    return provider


def _g(crb_provider: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> np.ndarray:
    """g(dtau) = dtau - sqrt(CRB(dtau)), with -inf where the FIM is unresolvable."""
    crb = np.asarray(crb_provider(grid), dtype=float)
    return np.where(np.isfinite(crb), grid - np.sqrt(np.maximum(crb, 0.0)), -np.inf)


def _bisect_root(crb_provider, lo: float, hi: float, tol: float) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g = mid - np.sqrt(float(crb_provider(np.array([mid]))[0]))
        if g < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def srl_search(crb_provider: Callable[[np.ndarray], np.ndarray],
               search: SrlSearch = SrlSearch()) -> SrlResult:
    """Find the statistical resolution limit by grid scan plus bisection.

    g(dtau) = dtau - sqrt(CRB(dtau)) is evaluated on the grid; every sign
    change is bisected to the requested tolerance and the smallest root wins.
    Grid points with an unresolvable FIM (CRB = inf) count as g < 0.
    """
    grid = search.grid()
    g = _g(crb_provider, grid)
    if g[0] >= 0:
        return SrlResult(None, None, (), search, below_range=True)
    roots = []
    for i in range(len(grid) - 1):
        if g[i] == 0.0:
            roots.append(grid[i])
        elif g[i] < 0 < g[i + 1]:
            roots.append(_bisect_root(crb_provider, grid[i], grid[i + 1], search.tol_s))
    if g[-1] == 0.0:
        roots.append(grid[-1])
    if not roots:
        return SrlResult(None, None, (), search)
    srl = min(roots)
    crb_at = float(crb_provider(np.array([srl]))[0])
    return SrlResult(float(srl), crb_at, tuple(sorted(roots)), search)


def srl_of_pattern(layout: BandLayout, w: np.ndarray, noise_std: float, gains,
                   prior_std_s: float | None = None,
                   search: SrlSearch = SrlSearch(),
                   cond_cap: float = DEFAULT_COND_CAP) -> SrlResult:
    """SRL of one pattern column under the offline gain/noise model."""
    provider = pattern_crb_provider(layout, w, noise_std, gains, prior_std_s, cond_cap)
    return srl_search(provider, search)


def srl_at_most(crb_provider: Callable[[np.ndarray], np.ndarray], beta_s: float,
                step_s: float) -> bool:
    """True when the SRL does not exceed beta_s, decided on a coarse grid.

    The grid starts at min(step_s, beta_s), advances by step_s and ends at
    the last step below beta_s + step_s/2, so its last point lies within half
    a step of beta_s, on either side. A root is certified when g >= 0 at the
    first grid point (root below the grid) or g turns from < 0 to >= 0
    between neighbouring points. The answer is thus "SRL <= last grid
    point", which can differ from "SRL <= beta_s" when the SRL falls between
    the two. One of the two tests holds whenever g >= 0 at the last point, so
    that point is evaluated alone first and the full scan runs only when
    g < 0 there; the decision is the full scan's either way.
    """
    lo = min(step_s, beta_s)
    grid = np.arange(lo, beta_s + 0.5 * step_s, step_s)
    if _g(crb_provider, grid[-1:])[0] >= 0:
        return True
    g = _g(crb_provider, grid)
    if g[0] >= 0:
        return True
    return bool(np.any((g[:-1] < 0) & (g[1:] >= 0)))
