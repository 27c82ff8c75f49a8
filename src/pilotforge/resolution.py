"""Fisher information, delay-separation CRB, and the statistical resolution limit.

The two-path model has parameters [tau_1, tau_2, alpha^R (2), alpha^I (2)] in
the single-band case, extended by per-band phase offsets phi_2..phi_M and
timing offsets delta_1..delta_M (with a Gaussian prior on the latter) in the
multiband case. All information-matrix entries depend on the delays only
through tau_2 - tau_1, so a common delay shift never changes anything here.

The SRL needs only CRB(tau_2 - tau_1), and no CRB here calls LAPACK. On a
single band it is a closed form in each column's support moments (the 2x2
delay information left after eliminating the complex gains), with no FIM
built. On a multiband layout ``crb_batch`` eliminates the nuisances of each
built FIM one pivot at a time, vectorized over the stack.

The SRL is the smallest delay separation solving dtau = sqrt(CRB(dtau)). With
g(dtau) = dtau - sqrt(CRB(dtau)), it is located by a grid scan for the first
crossing, the first grid point with g >= 0, in ascending chunks that stop at
the first chunk holding it, then bisection of the bracket that ends there.
``srl_search`` finds the SRLs of a whole stack of columns in one scan and
one lockstep bisection, and the EDA gate's ``srl_at_most`` decides "SRL <=
beta" for a stack with the same scan: a column's CRB in a stack is its CRB
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .waveform import BandLayout

__all__ = [
    "SrlResult",
    "SrlSearch",
    "check_offline_model",
    "fim",
    "crb_batch",
    "resolvable_at",
    "srl_search",
    "pattern_crb_provider",
    "srl_of_pattern",
    "srl_at_most",
]

# grid points per CRB batch of the SRL scan; the scan stops at the first
# chunk with a crossing, which sits near the grid's start for useful patterns
_SCAN_CHUNK = 64


@dataclass(frozen=True)
class SrlSearch:
    """1-D search parameters for the SRL root finder, in seconds."""

    tau_lo_s: float = 0.05e-9
    tau_hi_s: float = 50e-9
    step_s: float = 0.01e-9
    tol_s: float = 1e-13

    def __post_init__(self):
        if not 0 < self.tau_lo_s < self.tau_hi_s < np.inf:
            raise ValueError("need 0 < tau_lo < tau_hi < inf")
        if not (0 < self.step_s < np.inf and 0 < self.tol_s < np.inf):
            raise ValueError("grid step and tolerance must be positive and finite")

    def grid(self) -> np.ndarray:
        return np.arange(self.tau_lo_s, self.tau_hi_s + 0.5 * self.step_s, self.step_s)


@dataclass(frozen=True)
class SrlResult:
    """Outcome of the SRL search.

    ``srl_s`` solves dtau = sqrt(CRB(dtau)), so the CRB there is srl_s**2 to
    the search tolerance, or is None when no crossing was found on the grid;
    ``below_range`` flags g(tau_lo) >= 0, a root below the search window.
    """

    srl_s: float | None
    search: SrlSearch
    below_range: bool = False

    @property
    def found(self) -> bool:
        return self.srl_s is not None


def _two_path_block(J: np.ndarray, plain: np.ndarray, cross: np.ndarray,
                    gains: np.ndarray, c: float) -> None:
    """Fill J[..., :6, :6], the [tau (2), a^R (2), a^I (2)] block, in place.

    Every entry is a linear functional of the moments sum_f f^k e^{j 2 pi f
    (tau_r - tau_s)} (k = 0, 1, 2): the plain sums sum_f f^k (plain) when
    r = s, and cross = sum_f f^k e^{j 2 pi f dtau} for r != s. Both have
    shape (..., 3) and broadcast against J's leading axes.
    """
    m = np.empty(cross.shape[:-1] + (3, 2, 2), dtype=complex)  # moment k, path r, path s
    m[..., 0, 0] = m[..., 1, 1] = plain
    m[..., 0, 1] = cross.conj()
    m[..., 1, 0] = cross
    ar = np.conj(gains)[:, None]                 # conj(alpha_r), down the rows
    tt = 8 * np.pi**2 * c * (ar * gains[None, :] * m[..., 2, :, :]).real
    tr = 4 * np.pi * c * (1j * ar * m[..., 1, :, :]).real
    ti = -4 * np.pi * c * (ar * m[..., 1, :, :]).real
    cc = 2 * c * m[..., 0, :, :].real
    ss = -2 * c * m[..., 0, :, :].imag           # sum sin(2 pi f (tau_s - tau_r))
    J[..., :6, :6] = np.concatenate([
        np.concatenate([tt, tr, ti], axis=-1),
        np.concatenate([np.swapaxes(tr, -1, -2), cc, ss], axis=-1),
        np.concatenate([np.swapaxes(ti, -1, -2), -ss, cc], axis=-1)], axis=-2)


def _fim_batch(ephase: np.ndarray, weights: np.ndarray, plain: np.ndarray,
               noise_std: float, gains: np.ndarray,
               prior_std_s: float | None) -> np.ndarray:
    """Two-path FIMs, (..., B, D, D), over delay separations.

    ephase (..., B, S) holds e^{j 2 pi f dtau} at the support's frequencies f
    and the B separations, weights (..., S, K) the support's moment weights
    and plain (..., 1, K) their sums over the support. The first three
    weights, f^k (k = 0, 1, 2), give the 6x6 [tau (2), a^R (2), a^I (2)]
    block, the whole FIM when prior_std_s is None (single band). Otherwise
    weights are rows of ``BandLayout.moment_weights`` (K = 3 + 5M) at the
    pinned frequencies, and phi_2..phi_M, delta_1..delta_M follow. With tau =
    (0, dtau), every nuisance entry is linear in the per-band moments sum w
    e^{j 2 pi f dtau}, w in {1, f, nf, nf f, nf^2}: the path-sum profile H =
    alpha_1 + alpha_2 e^{-j 2 pi f dtau} enters through sum_k alpha_k e^{j 2
    pi f (tau_r - tau_k)} and through |H|^2 = |alpha_1|^2 + |alpha_2|^2 + 2
    Re(alpha_1 alpha_2^* e^{j 2 pi f dtau}). So one product ephase @ weights
    gives every moment of the batch, and each leading index is computed
    exactly as that column alone.
    """
    al = np.asarray(gains, dtype=complex)
    c = 1.0 / noise_std**2
    moments = ephase @ weights                                      # (..., B, K)
    m = (weights.shape[-1] - 3) // 5
    dim = 6 if prior_std_s is None else 6 + (m - 1) + m

    J = np.zeros(moments.shape[:-1] + (dim, dim))
    _two_path_block(J, plain[..., :3], moments[..., :3], al, c)
    if prior_std_s is None:
        return J

    mom = moments[..., 3:].reshape(moments.shape[:-1] + (5, m))    # weight, band
    pb = plain[..., 3:].reshape(plain.shape[:-1] + (5, m))
    # per-band sums of w * sum_k alpha_k e^{j 2 pi f (tau_r - tau_k)}, path r
    v = np.stack([al[0] * pb + al[1] * mom.conj(), al[0] * mom + al[1] * pb], axis=-3)
    h2 = np.sum(np.abs(al) ** 2) * pb + 2 * (al[0] * np.conj(al[1]) * mom).real
    ar = np.conj(al)[:, None]                # conj(alpha_r), down the rows
    phi = slice(6, 6 + m - 1)
    dl = slice(6 + m - 1, dim)
    J[..., 0:2, phi] = -4 * np.pi * c * (ar * v[..., 1, 1:]).real
    J[..., 2:4, phi] = -2 * c * v[..., 0, 1:].imag
    J[..., 4:6, phi] = 2 * c * v[..., 0, 1:].real
    J[..., 0:2, dl] = 8 * np.pi**2 * c * (ar * v[..., 3, :]).real
    J[..., 2:4, dl] = 4 * np.pi * c * v[..., 2, :].imag
    J[..., 4:6, dl] = -4 * np.pi * c * v[..., 2, :].real
    J[..., 6:, :6] = np.swapaxes(J[..., :6, 6:], -1, -2)
    iphi = 6 + np.arange(m - 1)
    idel = 6 + (m - 1) + np.arange(m)
    J[..., iphi, iphi] = 2 * c * h2[..., 0, 1:]
    J[..., iphi, idel[1:]] = J[..., idel[1:], iphi] = -4 * np.pi * c * h2[..., 2, 1:]
    J[..., idel, idel] = 8 * np.pi**2 * c * h2[..., 4, :]
    J[..., idel, idel] += 1.0 / prior_std_s**2
    return J


def check_offline_model(layout: BandLayout, noise_std: float, gains,
                        prior_std_s: float | None) -> None:
    """Raise ValueError unless the offline two-path model has a positive, finite
    noise std, two finite gains and, on a multiband layout (the only one that
    reads it), a positive, finite timing-offset prior std."""
    if not 0 < noise_std < np.inf:
        raise ValueError("noise std must be positive and finite (the FIM diverges at zero noise)")
    gains = np.asarray(gains, dtype=complex)
    if gains.shape != (2,) or not np.isfinite(gains).all():
        raise ValueError("the two-path model takes exactly two finite gains")
    if layout.mode == "multi" and (prior_std_s is None or not 0 < prior_std_s < np.inf):
        raise ValueError("multiband FIM needs a positive, finite timing-offset prior std")


def _supports(layout: BandLayout, columns: np.ndarray) -> tuple[tuple[int, ...], np.ndarray,
                                                                np.ndarray]:
    """(leading shape, (Q, S) support indices, (N,) mask of the subcarriers some
    column uses) of one pattern column (N,) or a (Q, N) stack of columns with
    equal positive pilot counts; ValueError for anything else."""
    cols = np.asarray(columns)
    n = layout.n_total
    if cols.ndim not in (1, 2) or cols.shape[-1] != n:
        raise ValueError("need one pattern column or a (Q, N) stack of them for this layout")
    stack = cols.reshape(-1, n) != 0
    counts = np.count_nonzero(stack, axis=1)
    if counts.size == 0 or counts[0] == 0 or np.any(counts != counts[0]):
        raise ValueError("pattern columns need the same positive pilot count")
    sup = np.flatnonzero(stack).reshape(len(stack), -1) - n * np.arange(len(stack))[:, None]
    return cols.shape[:-1], sup, np.any(stack, axis=0)


def _fim_builder(layout: BandLayout, columns: np.ndarray, noise_std: float, gains,
                 prior_std_s: float | None) -> Callable[[np.ndarray], np.ndarray]:
    """dtaus -> FIM stack (..., B, D, D) for one column (N,) or a stack of
    columns (Q, N) with equal pilot counts, at B separations that every column
    shares, (B,), or at one row of them per column, (Q, B); the inputs are
    checked here.

    e^{j 2 pi f dtau} is evaluated once per separation and per subcarrier
    that some column uses, by the same elementwise product as for one pilot,
    and each column gathers its support's phases from that table.
    """
    check_offline_model(layout, noise_std, gains, prior_std_s)
    gains = np.asarray(gains, dtype=complex)
    lead, sup, used = _supports(layout, columns)
    if layout.mode == "single":  # the model has no nuisances, so no prior to read
        f = np.arange(layout.n_total) * layout.subbands[0].spacing_hz
        table, prior_std_s = np.stack([np.ones_like(f), f, f**2], axis=-1), None
    else:
        f, table = layout.pinned_frequencies_hz, layout.moment_weights
    f_used = f[used]
    at = np.take(np.cumsum(used) - 1, sup)[:, None, :]      # (Q, 1, S) into f_used
    weights = np.take(table, sup, axis=0)
    # summed pilot-major, (S, Q, K), over the first axis: each column's weights
    # are added in support order, as a sum over S of (Q, S, K) adds them
    plain = np.take(table, sup.T, axis=0).sum(axis=0)[:, None, :]

    def fims(dtaus: np.ndarray) -> np.ndarray:
        dt = np.asarray(dtaus, dtype=float)
        # e^{j 2 pi f (tau_r - tau_s)} for (r, s) = (2, 1); (1, 2) is its conjugate
        phases = np.exp(2j * np.pi * dt[..., None] * f_used)   # (B, U) or (Q, B, U)
        rows = np.arange(dt.size).reshape(dt.shape) * len(f_used)
        J = _fim_batch(np.take(phases, rows[..., None] + at), weights, plain,
                       noise_std, gains, prior_std_s)
        return J.reshape(lead + J.shape[1:])

    return fims


def fim(layout: BandLayout, columns: np.ndarray, noise_std: float, gains,
        delta_taus, prior_std_s: float | None = None) -> np.ndarray:
    """Two-path FIM of one pattern column (N,), (B, D, D), or of each column of
    a (Q, N) stack, (Q, B, D, D), at the B delay separations delta_taus:
    (B,) shared by every column, or (Q, B), row q for column q.

    The layout picks the model. Single band: D = 6, parameters [tau_1, tau_2,
    a1^R, a2^R, a1^I, a2^I] over the subcarriers n f_s, n = 0..N-1. Multiband:
    D = 6 + 2M - 1, parameters [tau (2), a^R (2), a^I (2), phi_2..phi_M,
    delta_1..delta_M], the first band's center pinned to zero and phi_1 to 0,
    which keeps the matrix finite; the timing prior adds 1/prior_std_s^2 on
    the delta diagonal. Neither the first path's delay nor the true
    phase/timing offsets enter any entry. Stacked columns need equal pilot
    counts, and each one comes out bit for bit as it would alone at the same
    separations.
    """
    fims = _fim_builder(layout, columns, noise_std, gains, prior_std_s)
    return fims(np.atleast_1d(np.asarray(delta_taus, dtype=float)))


def crb_batch(J: np.ndarray) -> np.ndarray:
    """CRB of tau_2 - tau_1 for each FIM of a (..., D, D) stack, +inf where unresolvable.

    This is the (1,1)+(2,2)-(1,2)-(2,1) combination of the inverse FIM, each
    FIM decided on its own, read off the 2x2 delay block of the Schur
    complement that eliminating the nuisances D-1 .. 2 leaves, one pivot at a
    time over the whole stack. The FIM is Jacobi-scaled to a unit diagonal
    first (the raw FIM mixes seconds and unit gains), and a nuisance with an
    exactly zero row (of a subband the pattern never touches, with no prior)
    gets a unit diagonal entry: so decoupled, it leaves the delay block
    unchanged. A non-positive diagonal entry or pivot, a non-positive 2x2
    determinant, or a CRB that is not finite and positive gives +inf.
    """
    J = np.asarray(J, dtype=float)
    shape, dim = J.shape[:-2], J.shape[-1]
    idle = np.all(J == 0.0, axis=-1) & (np.arange(dim) >= 2)  # never the delays
    J = (J + idle[..., None] * np.eye(dim)).reshape(-1, dim, dim)
    diag = np.diagonal(J, axis1=1, axis2=2)
    ok = np.all(diag > 0, axis=1)
    ds = np.sqrt(np.where(diag > 0, diag, 1.0))
    s = J / (ds[:, :, None] * ds[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(dim - 1, 1, -1):
            ok &= s[:, k, k] > 0
            pivot = np.where(ok, s[:, k, k], 1.0)[:, None, None]
            col = s[:, :k, k]
            # col_i col_j / pivot keeps the remaining block exactly symmetric
            s[:, :k, :k] -= col[:, :, None] * col[:, None, :] / pivot
        a, b, c = s[:, 0, 0], s[:, 0, 1], s[:, 1, 1]
        u0, u1 = 1.0 / ds[:, 0], 1.0 / ds[:, 1]
        det = a * c - b * b
        val = (c * u0**2 + a * u1**2 + 2 * b * u0 * u1) / det
    ok &= (det > 0) & np.isfinite(val) & (val > 0)
    return np.where(ok, val, np.inf).reshape(shape)


def _single_band_crbs(layout: BandLayout, columns: np.ndarray, noise_std: float,
                      gains) -> Callable[[np.ndarray], np.ndarray]:
    """``pattern_crb_provider`` of a single-band layout: the CRB of tau_2 -
    tau_1 in closed form from each column's support moments, without a FIM.

    With e_r = e^{-j 2 pi f tau_r}, G_k[r, s] = sum_S f^k conj(e_r) e_s holds
    the plain sums P_k on its diagonal and C_k = sum_S f^k e^{j 2 pi f dtau}
    at (2, 1). The complex gains are linear nuisances; eliminating them
    leaves J_eff = (8 pi^2 / sigma^2) Re(conj(alpha_r) alpha_s M[r, s]), M =
    G_2 - G_1 G_0^{-1} G_1, and CRB = (J_11 + J_22 + 2 J_12) / det J_eff,
    elementwise over (Q, B). It is +inf where P_0^2 - |C_0|^2 <= 1e-12 P_0^2
    (the two paths' steering vectors are collinear on the support), where
    det J_eff <= 0, or where the CRB is not finite and positive. J_eff does
    not depend on the frequency origin (a shift of f moves the delay
    derivatives along the gains' directions), so each column measures f from
    its own mean, which keeps the moments well conditioned. Each column
    gathers its phases from one per-separation table into a contiguous (Q,
    B, S) array summed along S, so a stack's row is the column alone.
    """
    check_offline_model(layout, noise_std, gains, None)
    al = np.asarray(gains, dtype=complex)
    lead, sup, used = _supports(layout, columns)
    f = np.arange(layout.n_total) * layout.subbands[0].spacing_hz
    f_used = f[used]
    at = np.take(np.cumsum(used) - 1, sup)[:, None, :]      # (Q, 1, S) into f_used
    fc = f[sup]
    fc = (fc - fc.mean(axis=-1, keepdims=True))[:, None, :]
    p0 = float(sup.shape[1])
    p1, p2 = fc.sum(axis=-1), (fc * fc).sum(axis=-1)          # (Q, 1)
    k = 8 * np.pi**2 / noise_std**2
    w11, w22, w12 = k * abs(al[0]) ** 2, k * abs(al[1]) ** 2, k * np.conj(al[0]) * al[1]

    def crbs(dtaus: np.ndarray) -> np.ndarray:
        dt = np.atleast_1d(np.asarray(dtaus, dtype=float))
        phases = np.exp(2j * np.pi * dt[..., None] * f_used)   # (B, U) or (Q, B, U)
        rows = np.arange(dt.size).reshape(dt.shape) * len(f_used)
        e = np.take(phases, rows[..., None] + at)             # (Q, B, S)
        c0 = e.sum(axis=-1)
        e *= fc
        c1 = e.sum(axis=-1)
        e *= fc
        c2 = e.sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det0 = p0**2 - (c0 * c0.conj()).real
            m_d = p2 - (p0 * (p1**2 + (c1 * c1.conj()).real)
                        - 2 * p1 * (c1.conj() * c0).real) / det0
            m_21 = c2 - (2 * p0 * p1 * c1 - p1**2 * c0 - c1**2 * c0.conj()) / det0
            j11, j22, j12 = w11 * m_d, w22 * m_d, (w12 * m_21.conj()).real
            det = j11 * j22 - j12**2
            crb = (j11 + j22 + 2 * j12) / det
        ok = (det0 > 1e-12 * p0**2) & (det > 0) & np.isfinite(crb) & (crb > 0)
        out = np.where(ok, crb, np.inf)
        return out.reshape(lead + out.shape[1:])

    return crbs


def pattern_crb_provider(layout: BandLayout, w: np.ndarray, noise_std: float, gains,
                         prior_std_s: float | None = None
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """dtaus (B,) -> CRBs under the offline model, (B,) for one pattern column
    and (Q, B) for a (Q, N) stack with equal pilot counts, each row as alone.
    A stack also takes per-column separations, (Q, B), row q for column q.

    A single-band layout gets the closed form of ``_single_band_crbs``, with
    no FIM; a multiband one builds the FIMs and hands them to ``crb_batch``.
    """
    if layout.mode == "single":   # the single-band model has no prior to read
        return _single_band_crbs(layout, w, noise_std, gains)
    fims = _fim_builder(layout, w, noise_std, gains, prior_std_s)
    return lambda dtaus: crb_batch(fims(np.atleast_1d(dtaus)))


def resolvable_at(layout: BandLayout, columns: np.ndarray, noise_std: float, gains,
                  beta_s: float, prior_std_s: float | None = None) -> np.ndarray:
    """g(beta_s) >= 0 for each column of a (Q, N) stack: the EDA gate's beta test.

    beta_s is the last point of every ``srl_at_most`` grid, and the test goes
    through the same ``_g``, so True certifies SRL <= beta_s for that column.
    False decides nothing: the column may still have a root below beta_s,
    which only the ``srl_at_most`` scan finds.
    """
    if not np.isfinite(beta_s):
        raise ValueError("beta_s must be finite")
    beta = np.array([float(beta_s)])
    crb = pattern_crb_provider(layout, columns, noise_std, gains, prior_std_s)(beta)
    return _g(beta, crb)[..., 0] >= 0


def _g(grid: np.ndarray, crb: np.ndarray) -> np.ndarray:
    """g(dtau) = dtau - sqrt(CRB(dtau)) from CRB values on the grid, with -inf
    where the FIM is unresolvable."""
    crb = np.asarray(crb, dtype=float)
    return np.where(np.isfinite(crb), grid - np.sqrt(np.maximum(crb, 0.0)), -np.inf)


def _first_crossings(crb_provider: Callable[[np.ndarray], np.ndarray],
                     grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first grid point with g >= 0 (-1 where there is none), and
    g there, for each row of the provider's CRBs: 0-d arrays for a provider of
    (B,) CRBs (one column), (Q,) ones for a provider of (Q, B) CRBs (a stack).

    The grid is scanned in ascending ``_SCAN_CHUNK``-point chunks, each shared
    by every row, until every row has crossed.
    """
    first = g_first = None
    for start in range(0, len(grid), _SCAN_CHUNK):
        chunk = grid[start:start + _SCAN_CHUNK]
        g = _g(chunk, crb_provider(chunk))
        crossed = g >= 0
        k = np.argmax(crossed, axis=-1)
        if first is None:
            first, g_first = np.full(k.shape, -1), np.zeros(k.shape)
        new = (first < 0) & np.any(crossed, axis=-1)
        first = np.where(new, start + k, first)
        g_first = np.where(new, np.take_along_axis(g, k[..., None], axis=-1)[..., 0], g_first)
        if np.all(first >= 0):
            break
    return first, g_first


def _bisect_roots(crb_at: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                  hi: np.ndarray, tol: float) -> np.ndarray:
    """Root of g in [lo, hi] for each row, given g(lo) < 0 <= g(hi); rows with
    hi - lo <= tol are done. crb_at (Q,) -> (Q,) gives each row's CRB at its
    own separation. The rows halve their brackets in lockstep, each exactly
    as it would alone, and stop one by one."""
    active = hi - lo > tol
    while np.any(active):
        mid = 0.5 * (lo + hi)
        below = _g(mid, crb_at(mid)) < 0
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
        active = hi - lo > tol
    return 0.5 * (lo + hi)


def srl_search(crb_provider: Callable[[np.ndarray], np.ndarray],
               search: SrlSearch = SrlSearch()) -> SrlResult | tuple[SrlResult, ...]:
    """Find the statistical resolution limit: the first crossing, then bisection.

    g(dtau) = dtau - sqrt(CRB(dtau)) is evaluated on the grid in ascending
    chunks of ``_SCAN_CHUNK`` points, and the scan stops at the first chunk
    that holds a point with g >= 0. That first grid point with g >= 0 is the
    root when g = 0 there, and otherwise ends the bracket that is bisected to
    the requested tolerance; no later crossing can give a smaller root. Grid
    points with an unresolvable FIM (CRB = inf) count as g < 0.

    A provider of (B,) CRBs (one column) gives one ``SrlResult``. One of
    (Q, B) CRBs (a stack) gives a tuple of Q: the chunks are shared until
    every column has crossed, and the columns are bisected in lockstep, the
    provider then taking one separation per column, (Q, 1). Each column's
    result is the one it gets alone.
    """
    grid = search.grid()
    first, g_first = _first_crossings(crb_provider, grid)
    stacked = first.ndim == 1
    if stacked:
        def crb_at(dtaus):
            return crb_provider(dtaus[:, None])[:, 0]
    else:
        crb_at = crb_provider
    first, g_first = np.atleast_1d(first, g_first)
    found = first > 0
    k = np.maximum(first, 0)
    # a root on the grid (g = 0) is an empty bracket [grid[k], grid[k]]
    srl = _bisect_roots(crb_at, grid[np.where(found & (g_first != 0.0), k - 1, k)],
                        grid[k], search.tol_s)
    results = tuple(SrlResult(float(srl[q]), search) if found[q]
                    else SrlResult(None, search, below_range=bool(first[q] == 0))
                    for q in range(len(first)))
    return results if stacked else results[0]


def srl_of_pattern(layout: BandLayout, w: np.ndarray, noise_std: float, gains,
                   prior_std_s: float | None = None,
                   search: SrlSearch = SrlSearch()) -> SrlResult | tuple[SrlResult, ...]:
    """SRL of one pattern column (N,) under the offline gain/noise model, or a
    tuple of one per column of a (Q, N) stack with equal pilot counts."""
    return srl_search(pattern_crb_provider(layout, w, noise_std, gains, prior_std_s), search)


def srl_at_most(crb_provider: Callable[[np.ndarray], np.ndarray], beta_s: float,
                step_s: float):
    """True where the SRL does not exceed beta_s: g >= 0 somewhere on a coarse grid.

    A provider of (B,) CRBs (one column) gets a bool, one of (Q, B) CRBs (a
    stack) one verdict per column. The grid starts at min(step_s, beta_s),
    advances by step_s while below beta_s and ends at beta_s itself. The
    first grid point with g >= 0 marks a crossing at or below beta_s; it is
    found by ``srl_search``'s chunked scan, which stops once every column has
    crossed. The EDA gate hands over only columns that ``resolvable_at`` has
    already found failing at beta_s.
    """
    if not np.isfinite(beta_s):
        raise ValueError("beta_s must be finite")
    if not 0 < step_s < np.inf:
        raise ValueError("step_s must be positive and finite")
    grid = np.arange(min(step_s, beta_s), beta_s, step_s)
    grid = np.append(grid[grid < beta_s], beta_s)
    hit = _first_crossings(crb_provider, grid)[0] >= 0
    return hit if hit.ndim else bool(hit)
