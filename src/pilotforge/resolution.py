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


def _two_path_block(J: np.ndarray, plain: np.ndarray, cross: np.ndarray,
                    gains: np.ndarray, c: float) -> None:
    """Fill J[:, :6, :6], the [tau (2), a^R (2), a^I (2)] block, in place.

    Every entry is a linear functional of the moments sum_f f^k e^{j 2 pi f
    (tau_r - tau_s)} (k = 0, 1, 2): the plain sums sum_f f^k (plain, shape
    (3,)) when r = s, and cross = sum_f f^k e^{j 2 pi f dtau} (shape (B, 3))
    for r != s.
    """
    m = np.empty((len(cross), 3, 2, 2), dtype=complex)  # moment k, path r, path s
    m[:, :, 0, 0] = m[:, :, 1, 1] = plain
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


def _powers(f_support: np.ndarray) -> np.ndarray:
    """(S, 3) weights f^k, k = 0, 1, 2, of the two-path moments."""
    return np.stack([np.ones_like(f_support), f_support, f_support**2], axis=1)


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
    powers = _powers(f_support)
    _two_path_block(J, powers.sum(axis=0), ephase @ powers,
                    np.asarray(gains, dtype=complex), 1.0 / noise_std**2)
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


def _multiband_support(layout: BandLayout, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinned supported frequencies of a multiband column, and their (S, 3 + 5M)
    moment weights.

    The first three weight columns are f^k (k = 0, 1, 2) over the whole
    support; then come the per-band weights 1, f, nf, nf f and nf^2
    (nf = n f_s,i), weight by weight, each zero outside its band.
    """
    sup = np.asarray(w) != 0
    f_sup = layout.pinned_frequencies_hz[sup]
    band = layout.band_index[sup]
    spacings = np.array([sb.spacing_hz for sb in layout.subbands])
    nf = layout.local_index[sup] * spacings[band]
    per_band = np.stack([np.ones_like(f_sup), f_sup, nf, nf * f_sup, nf**2], axis=1)  # (S, 5)
    onehot = band[:, None] == np.arange(layout.n_bands)[None, :]                       # (S, M)
    table = (per_band[:, :, None] * onehot[:, None, :]).reshape(len(f_sup), -1)
    return f_sup, np.concatenate([_powers(f_sup), table], axis=1)


def _fim_multiband_batch(f_support: np.ndarray, table: np.ndarray, n_bands: int,
                         noise_std: float, gains: np.ndarray, delta_taus: np.ndarray,
                         prior_std_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of multiband FIMs (total, observation-only) over delay separations.

    f_support (pinned: first band center at zero) and table come from
    ``_multiband_support``. Parameter order: [tau_1, tau_2, a^R (2), a^I (2),
    phi_2..phi_M, delta_1..delta_M]. With tau = (0, dtau), every nuisance
    entry is linear in the per-band moments sum w e^{j 2 pi f dtau}, w in
    {1, f, nf, nf f, nf^2}: the path-sum profile H = alpha_1 + alpha_2
    e^{-j 2 pi f dtau} enters through sum_k alpha_k e^{j 2 pi f (tau_r -
    tau_k)} and through |H|^2 = |alpha_1|^2 + |alpha_2|^2 + 2 Re(alpha_1
    alpha_2^* e^{j 2 pi f dtau}). So one product ephase @ table gives every
    moment of the batch.
    """
    al = np.asarray(gains, dtype=complex)
    dt = np.asarray(delta_taus, dtype=float)
    c = 1.0 / noise_std**2
    b, m = dt.shape[0], n_bands
    dim = 6 + (m - 1) + m

    ephase = np.exp(2j * np.pi * dt[:, None] * f_support[None, :])  # (B, S)
    moments = ephase @ table                                          # (B, 3 + 5M)
    plain = table.sum(axis=0)
    J = np.zeros((b, dim, dim))
    _two_path_block(J, plain[:3], moments[:, :3], al, c)

    mom = moments[:, 3:].reshape(b, 5, m)    # weight, band
    pb = plain[3:].reshape(5, m)
    # per-band sums of w * sum_k alpha_k e^{j 2 pi f (tau_r - tau_k)}, path r
    v = np.stack([al[0] * pb + al[1] * mom.conj(), al[0] * mom + al[1] * pb], axis=1)
    h2 = np.sum(np.abs(al) ** 2) * pb + 2 * (al[0] * np.conj(al[1]) * mom).real
    ar = np.conj(al)[None, :, None]          # conj(alpha_r), down the rows
    phi = slice(6, 6 + m - 1)
    dl = slice(6 + m - 1, dim)
    J[:, 0:2, phi] = -4 * np.pi * c * (ar * v[:, :, 1, 1:]).real
    J[:, 2:4, phi] = -2 * c * v[:, :, 0, 1:].imag
    J[:, 4:6, phi] = 2 * c * v[:, :, 0, 1:].real
    J[:, 0:2, dl] = 8 * np.pi**2 * c * (ar * v[:, :, 3]).real
    J[:, 2:4, dl] = 4 * np.pi * c * v[:, :, 2].imag
    J[:, 4:6, dl] = -4 * np.pi * c * v[:, :, 2].real
    J[:, 6:, :6] = J[:, :6, 6:].transpose(0, 2, 1)
    iphi = 6 + np.arange(m - 1)
    idel = 6 + (m - 1) + np.arange(m)
    J[:, iphi, iphi] = 2 * c * h2[:, 0, 1:]
    J[:, iphi, idel[1:]] = J[:, idel[1:], iphi] = -4 * np.pi * c * h2[:, 2, 1:]
    J[:, idel, idel] = 8 * np.pi**2 * c * h2[:, 4]

    J_obs = J.copy()
    J[:, idel, idel] += 1.0 / prior_std_s**2
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
    f_sup, table = _multiband_support(layout, w)
    J, J_obs = _fim_multiband_batch(f_sup, table, layout.n_bands, noise_std, gains,
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
    f_sup, table = _multiband_support(layout, w)

    def provider(dtaus: np.ndarray) -> np.ndarray:
        J, _ = _fim_multiband_batch(f_sup, table, layout.n_bands, noise_std, gains,
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

    The grid starts at min(step_s, beta_s), advances by step_s while below
    beta_s and ends at beta_s itself. A root is certified when g >= 0 at the
    first grid point (root below the grid) or g turns from < 0 to >= 0
    between neighbouring points, so every certified root lies at or below
    beta_s and the answer is "SRL <= beta_s" on this grid. One of the two
    tests holds whenever g >= 0 at beta_s, so that point is evaluated alone
    first and the full scan runs only when g < 0 there; the decision is the
    full scan's either way. The EDA's gate caches these decisions per
    (group, column) within one run, so it calls this at most once per pair.
    """
    grid = np.arange(min(step_s, beta_s), beta_s, step_s)
    grid = np.append(grid[grid < beta_s], beta_s)
    if _g(crb_provider, grid[-1:])[0] >= 0:
        return True
    g = _g(crb_provider, grid)
    if g[0] >= 0:
        return True
    return bool(np.any((g[:-1] < 0) & (g[1:] >= 0)))
