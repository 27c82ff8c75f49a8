"""Fisher information, delay-separation CRB, and the statistical resolution limit.

The two-path model has parameters [tau_1, tau_2, alpha^R (2), alpha^I (2)] in
the single-band case, extended by per-band phase offsets phi_2..phi_M and
timing offsets delta_1..delta_M (with a Gaussian prior on the latter) in the
multiband case. All information-matrix entries depend on the delays only
through tau_2 - tau_1, so a common delay shift never changes anything here.

The SRL needs only CRB(tau_2 - tau_1), and no CRB here builds a FIM or calls
LAPACK; ``fim`` builds the whole matrix for reference. Every CRB goes through
one elimination for both bands, ``_gain_free_crb``: it eliminates the complex
gains in closed form, from each column's support moments sum_S w(f) e^{j 2
pi f dtau}, and hands ``crb_batch`` the information left on the delays and
the nuisances, which it eliminates one pivot at a time, vectorized over the
stack. A single band is the case without nuisances, where ``crb_batch``
reads the 2x2 delay block directly. The moments come two ways, and both
stay. ``pattern_crb_provider`` gathers each column's support phases and
weights and takes one (B, S) @ (S, K) product per column, so a stack's row
is bit for bit the column alone and an SRL does not depend on the stack it
is searched in. The EDA gate's beta test ``resolvable_at``, one separation
per column, is faster as one dense product of the 0/1 stack with a per-beta
table.

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

import functools
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


def _phase_gather(f: np.ndarray, sup: np.ndarray,
                  used: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """dtaus -> e^{j 2 pi f dtau} at each column's support, (Q, B, S), for B
    separations that every column shares, (B,), or one row of them per
    column, (Q, B). The phase is evaluated once per separation and per
    subcarrier that some column uses, by the same elementwise product as for
    one pilot, and each column gathers its support's phases from that table."""
    f_used = f[used]
    at = np.take(np.cumsum(used) - 1, sup)[:, None, :]      # (Q, 1, S) into f_used

    def phases(dtaus: np.ndarray) -> np.ndarray:
        dt = np.asarray(dtaus, dtype=float)
        table = np.exp(2j * np.pi * dt[..., None] * f_used)  # (B, U) or (Q, B, U)
        rows = np.arange(dt.size).reshape(dt.shape) * len(f_used)
        return np.take(table, rows[..., None] + at)

    return phases


def _support_weights(table: np.ndarray, sup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (Q, S, K) rows of a per-subcarrier weight table at each column's
    support, and their (Q, 1, K) sums over the support."""
    # summed pilot-major, (S, Q, K), over the first axis: each column's weights
    # are added in support order, as a sum over S of (Q, S, K) adds them
    return np.take(table, sup, axis=0), np.take(table, sup.T, axis=0).sum(axis=0)[:, None, :]


def _fim_builder(layout: BandLayout, columns: np.ndarray, noise_std: float, gains,
                 prior_std_s: float | None) -> Callable[[np.ndarray], np.ndarray]:
    """dtaus -> FIM stack (..., B, D, D) for one column (N,) or a stack of
    columns (Q, N) with equal pilot counts, at B separations that every column
    shares, (B,), or at one row of them per column, (Q, B); the inputs are
    checked here."""
    check_offline_model(layout, noise_std, gains, prior_std_s)
    gains = np.asarray(gains, dtype=complex)
    lead, sup, used = _supports(layout, columns)
    if layout.mode == "single":  # the model has no nuisances, so no prior to read
        f = np.arange(layout.n_total) * layout.subbands[0].spacing_hz
        table, prior_std_s = np.stack([np.ones_like(f), f, f**2], axis=-1), None
    else:
        f, table = layout.pinned_frequencies_hz, layout.moment_weights
    phases = _phase_gather(f, sup, used)
    weights, plain = _support_weights(table, sup)

    def fims(dtaus: np.ndarray) -> np.ndarray:
        J = _fim_batch(phases(dtaus), weights, plain, noise_std, gains, prior_std_s)
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
    """CRB of tau_2 - tau_1 for each information matrix of a (..., D, D)
    stack whose first two parameters are tau_1 and tau_2, +inf where
    unresolvable.

    This is the (1,1)+(2,2)-(1,2)-(2,1) combination of the inverse, each
    matrix decided on its own, read off the 2x2 delay block of the Schur
    complement that eliminating the nuisances D-1 .. 2 leaves, one pivot at a
    time over the whole stack. ``_gain_free_crb`` hands it the information
    left after the gains are eliminated in closed form: the 2x2 delay block
    itself on a single band, read without a pivot, and the (2M+1)-square
    information on a multiband layout, where it pivots on delta_M .. delta_1
    and phi_M .. phi_2; a whole FIM from ``fim`` (the gains too) gives the
    same CRB. The matrix is Jacobi-scaled to a unit diagonal first (it mixes
    seconds and unit gains or phases), and a nuisance with an exactly zero
    row (the phase of a subband the pattern never touches) gets a unit
    diagonal entry: so decoupled, it leaves the delay block unchanged. A
    non-positive diagonal entry or pivot, a non-positive 2x2 determinant, or
    a CRB that is not finite and positive gives +inf.
    """
    J = np.array(J, dtype=float)
    shape, dim = J.shape[:-2], J.shape[-1]
    J = J.reshape(-1, dim, dim)
    idle = np.all(J[:, 2:] == 0.0, axis=-1)       # the nuisances' rows, never the delays'
    J[:, 2:, 2:] += idle[:, :, None] * np.eye(dim - 2)
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


def _moment_table(layout: BandLayout) -> tuple[np.ndarray, np.ndarray]:
    """(N,) frequencies f of the phases e^{j 2 pi f dtau} and (N, K) moment
    weights of the CRB. Single band: f = n f_s and K = 3 weights [1, f, f^2]
    about the band's centre, an origin the CRB does not depend on that keeps
    the moments well conditioned. Multiband: the pinned frequencies and
    ``BandLayout.moment_weights``, K = 3 + 5M."""
    if layout.mode == "single":
        f = np.arange(layout.n_total) * layout.subbands[0].spacing_hz
        fb = f - 0.5 * f[-1]
        return f, np.stack([np.ones_like(f), fb, fb * fb], axis=-1)
    return layout.pinned_frequencies_hz, layout.moment_weights


@functools.lru_cache(maxsize=8)
def _gain_free_terms(m: int, alpha_1: complex, alpha_2: complex) -> tuple[np.ndarray, ...]:
    """The constant parts of ``_gain_free_crb`` for M = m bands (m = 0: a
    single band, whose parameters are tau_1 and tau_2 alone) and the gains:
    the table column of each weight product W_a W_b and of each W_a, each
    parameter's c_a, and the coefficients s, cr, ci of P, Re C and Im C in
    c_a^H A_{W_a W_b} c_b (zero for two different bands)."""
    band = np.r_[-1, -1, np.arange(1, m), np.arange(m)]      # -1: every band
    fpow = (band < 0).astype(int)
    npow = np.r_[np.zeros(len(band) - m, dtype=int), np.ones(m, dtype=int)]

    def column(band, fpow, npow):   # the table column of the weight f^fpow nf^npow 1_band
        return np.where(band < 0, fpow, 3 + m * (fpow + 2 * npow) + band)

    pair = column(np.maximum.outer(band, band), np.add.outer(fpow, fpow),
                  np.add.outer(npow, npow))
    live = (np.minimum.outer(band, band) < 0) | np.equal.outer(band, band)
    al = np.array([alpha_1, alpha_2])
    c = np.empty((len(band), 2), dtype=complex)
    c[:2] = -2j * np.pi * np.diag(al)
    c[2:] = np.where(npow[2:, None] == 1, -2j * np.pi, 1j) * al
    # c_a^H A c_b = P s + Re(conj(C) x + C y), x = conj(c_a1) c_b2, y = conj(c_a2) c_b1
    x = np.outer(c[:, 0].conj(), c[:, 1])
    y = np.outer(c[:, 1].conj(), c[:, 0])
    s = (np.outer(c[:, 0].conj(), c[:, 0]) + np.outer(c[:, 1].conj(), c[:, 1])).real * live
    terms = (pair, column(band, fpow, npow), c, s, (x.real + y.real) * live,
             (x.imag - y.imag) * live)
    for term in terms:   # every caller shares the cached arrays
        term.flags.writeable = False
    return terms


def _gain_free_crb(moments: np.ndarray, plain: np.ndarray, noise_std: float, gains,
                   prior_std_s: float | None) -> np.ndarray:
    """CRB of tau_2 - tau_1 from support moments, (..., B): the complex gains
    eliminated in closed form, then ``crb_batch`` of the information left on
    [tau_1, tau_2, phi_2..phi_M, delta_1..delta_M]; +inf where the gains'
    Gram is ill conditioned.

    moments (..., B, K) and plain (..., 1, K) are the cross sums C_w = sum_S w
    e^{j 2 pi f dtau} and the plain sums P_w = sum_S w of the K weights of
    ``_moment_table``: K = 3 on a single band (M = 0, no nuisances), K = 3 +
    5M on a multiband layout. With e_r = e^{-j 2 pi f tau_r}, A_w = sum_S w
    [conj(e_r) e_s] = [[P_w, conj(C_w)], [C_w, P_w]] and G = A_1. Parameter
    a has the derivative sum_r e_r W_a c_a[r], with (W_a, c_a) = (f, -j 2 pi
    alpha_r u_r) for tau_r, (1_m, j alpha) for phi_m and (nf 1_m, -j 2 pi
    alpha) for delta_m, so eliminating the gains leaves J_eff[a, b] = (2 /
    sigma^2) Re(c_a^H A_{W_a W_b} c_b - v_a^H G^{-1} v_b), v_a = A_{W_a} c_a,
    plus the prior 1 / prior_std_s^2 on the delta diagonal, the only place
    the prior is read. Every weight product is a column of the table, or
    vanishes for two different bands. The second term is |z|^2-shaped, z = L
    v with G^{-1} = L^H L from the Cholesky factor of G, so the matrix is
    exactly symmetric, and a subband without pilots leaves its phi row
    exactly zero. The Gram is well conditioned where P_1^2 - |C_1|^2 > 1e-12
    P_1^2 (the two paths' steering vectors are not collinear on the support).
    """
    m = (moments.shape[-1] - 3) // 5
    pair, one, c, s, cr, ci = _gain_free_terms(m, *np.asarray(gains, dtype=complex).tolist())
    cw, pw = moments[..., pair], plain[..., pair]
    first = pw * s + cw.real * cr + cw.imag * ci
    pa, ca = plain[..., one], moments[..., one]
    v1 = pa * c[:, 0] + ca.conj() * c[:, 1]
    v2 = ca * c[:, 0] + pa * c[:, 1]
    p1, c1 = plain[..., :1], moments[..., :1]
    det0 = p1 * p1 - (c1 * c1.conj()).real
    ok = det0 > 1e-12 * p1 * p1
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = np.where(ok, (v2 - c1 * v1 / p1) / np.sqrt(det0 / p1), 0.0)
    z1 = v1 / np.sqrt(p1)
    z = np.stack([z1.real, z1.imag, z2.real, z2.imag])
    J = 2 / noise_std**2 * (first - (z[..., :, None] * z[..., None, :]).sum(axis=0))
    if m:
        idel = np.arange(m + 1, 2 * m + 1)
        J[..., idel, idel] += 1.0 / prior_std_s**2
    return np.where(ok[..., 0], crb_batch(J), np.inf)


def pattern_crb_provider(layout: BandLayout, w: np.ndarray, noise_std: float, gains,
                         prior_std_s: float | None = None
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """dtaus (B,) -> CRBs under the offline model, (B,) for one pattern column
    and (Q, B) for a (Q, N) stack with equal pilot counts, each row as alone.
    A stack also takes per-column separations, (Q, B), row q for column q.

    No FIM is built: ``_gain_free_crb`` of each column's support moments, one
    (B, S) @ (S, K) product of its gathered phases and weights per column, so
    a stack's row is the column alone.
    """
    check_offline_model(layout, noise_std, gains, prior_std_s)
    lead, sup, used = _supports(layout, w)
    f, table = _moment_table(layout)
    phases = _phase_gather(f, sup, used)
    weights, plain = _support_weights(table, sup)

    def crbs(dtaus: np.ndarray) -> np.ndarray:
        out = _gain_free_crb(phases(np.atleast_1d(dtaus)) @ weights, plain,
                             noise_std, gains, prior_std_s)
        return out.reshape(lead + out.shape[1:])

    return crbs


def resolvable_at(layout: BandLayout, columns: np.ndarray, noise_std: float, gains,
                  beta_s, prior_std_s: float | None = None) -> np.ndarray:
    """g(beta) >= 0 for each column of a (Q, N) stack: the EDA gate's beta test.

    beta_s is one separation for every column or one per column, (Q,), and
    the columns may differ in pilot count. Each beta is the last point of the
    column's ``srl_at_most`` grid, and the test goes through the same ``_g``,
    so True certifies SRL <= beta for that column. False decides nothing: the
    column may still have a root below beta, which only the ``srl_at_most``
    scan finds.

    No provider is built. The moments for ``_gain_free_crb`` come from one
    dense real product of the 0/1 stack with a per-beta (N, 3K) table [w,
    Re(w e^{j 2 pi f beta}), Im(w e^{j 2 pi f beta})] per distinct beta, with
    the f and w of ``_moment_table``.
    """
    cols = np.asarray(columns)
    if cols.ndim != 2 or cols.shape[1] != layout.n_total:
        raise ValueError("need a (Q, N) stack of pattern columns for this layout")
    beta = np.broadcast_to(np.asarray(beta_s, dtype=float), cols.shape[:1])
    if not np.isfinite(beta).all():
        raise ValueError("beta_s must be finite")
    check_offline_model(layout, noise_std, gains, prior_std_s)
    stack = cols != 0
    if not stack.any(axis=1).all():
        raise ValueError("pattern columns need a positive pilot count")
    f, table = _moment_table(layout)
    k = table.shape[1]
    plain = np.empty((len(cols), k))
    cross = np.empty((len(cols), k), dtype=complex)
    # Threaded BLAS can stall for milliseconds on products of this size, so
    # each is formed in row blocks under 2^18 multiply-adds, the size below
    # which OpenBLAS stays on one thread.
    block = max(1, 2**18 // (3 * k * len(f)))
    for b in np.unique(beta):
        rows = np.flatnonzero(beta == b)
        e = np.exp(2j * np.pi * b * f)[:, None] * table
        terms = np.concatenate([table, e.real, e.imag], axis=1)
        sums = np.concatenate([stack[rows[i:i + block]] @ terms
                               for i in range(0, len(rows), block)])
        plain[rows], cross[rows] = sums[:, :k], sums[:, k:2 * k] + 1j * sums[:, 2 * k:]
    crb = _gain_free_crb(cross[:, None, :], plain[:, None, :], noise_std, gains, prior_std_s)
    return _g(beta, crb[:, 0]) >= 0


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
