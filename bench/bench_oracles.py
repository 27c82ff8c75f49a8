"""Independent references for the benchmark's output checks.

Nothing here imports pilotforge: each reference is computed from the model
definitions (subcarrier frequencies, the two-path signal model, the side-lobe
integral) with numpy and scipy alone, so a fault in the program cannot hide
behind the check that is meant to catch it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq


# --- frequency grids -------------------------------------------------------

def layout_frequencies(band: dict, mode: str) -> dict:
    """Subcarrier frequencies of a band configuration, flattened.

    Single band: n * f_s for n = 0..N-1 (the band edge is the reference).
    Multiband: subbands ascending in center frequency, each indexed
    n = -(N_m-1)/2 .. (N_m-1)/2 around its center. ``pinned`` puts the first
    center at zero, the convention every estimation-side quantity uses;
    ``absolute`` keeps the carrier, the convention of the channel itself.
    """
    if mode == "single":
        n = np.arange(int(band["subcarriers"]))
        f = n * float(band["spacing_hz"])
        return {"pinned": f, "absolute": f, "band": np.zeros(len(n), dtype=int),
                "local": n.astype(float), "spacing": np.full(len(n), float(band["spacing_hz"]))}
    subs = sorted(zip(band["multi_centers_hz"], band["multi_spacings_hz"],
                      band["multi_counts"]), key=lambda s: s[0])
    absolute, which, local, spacing = [], [], [], []
    for m, (center, fs, count) in enumerate(subs):
        n = np.arange(int(count)) - (int(count) - 1) // 2
        absolute.append(float(center) + n * float(fs))
        which.append(np.full(len(n), m))
        local.append(n.astype(float))
        spacing.append(np.full(len(n), float(fs)))
    absolute = np.concatenate(absolute)
    return {"pinned": absolute - float(subs[0][0]), "absolute": absolute,
            "band": np.concatenate(which), "local": np.concatenate(local),
            "spacing": np.concatenate(spacing)}


# --- pattern structure -----------------------------------------------------

def structure_problems(groups: list[list[int]], budgets: list[int], n_total: int) -> list[str]:
    """Budget, disjointness and range violations of a pattern's index lists."""
    problems = []
    if len(groups) != len(budgets):
        problems.append(f"{len(groups)} groups for {len(budgets)} budgets")
    seen: set[int] = set()
    for g, idx in enumerate(groups):
        if len(idx) != len(set(idx)):
            problems.append(f"group {g} repeats an index")
        if g < len(budgets) and len(set(idx)) != budgets[g]:
            problems.append(f"group {g} holds {len(set(idx))} pilots, budget {budgets[g]}")
        if any(not 0 <= i < n_total for i in idx):
            problems.append(f"group {g} has an index outside [0, {n_total})")
        if seen & set(idx):
            problems.append(f"group {g} shares subcarriers with an earlier group")
        seen |= set(idx)
    return problems


# --- side-lobe integral ----------------------------------------------------

def _sidelobe_integral(f: np.ndarray, a: float, b: float, order: int,
                       panel: float, chunk: int = 4096) -> float:
    """Composite Gauss-Legendre value of int_a^b |sum_f e^{-j 2 pi f t}|^2 dt."""
    n_panels = int(np.ceil((b - a) / panel))
    edges = np.linspace(a, b, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    total = 0.0
    for s in range(0, len(t), chunk):
        chi = np.exp(-2j * np.pi * np.outer(t[s:s + chunk], f)).sum(axis=1)
        total += float(np.dot(wt[s:s + chunk], np.abs(chi) ** 2))
    return total


def isl_by_quadrature(f_support: np.ndarray, a_s: float, b_s: float) -> tuple[float, float]:
    """ISL of a pattern column by direct numerical integration, and a tolerance.

    ISL = int_{[-b,-a] u [a,b]} |chi|^2 / (2 (b - a) P^2); |chi| is even for a
    real mask, so one side is integrated. |chi|^2 is a trigonometric
    polynomial whose highest frequency is the support's frequency span, so
    panels half of that period wide make Gauss-Legendre converge fast.
    The tolerance is ten times the gap between a 10-node and a 14-node rule
    on those panels, plus a rounding floor of 1e-11 of the value.
    """
    f = np.asarray(f_support, dtype=float)
    span = float(f.max() - f.min())
    panel = (b_s - a_s) if span == 0 else min(b_s - a_s, 0.5 / span)
    norm = (b_s - a_s) * len(f) ** 2
    coarse = _sidelobe_integral(f - f.min(), a_s, b_s, 10, panel) / norm
    fine = _sidelobe_integral(f - f.min(), a_s, b_s, 14, panel) / norm
    return fine, 10.0 * abs(fine - coarse) + 1e-11 * abs(fine)


# --- two-path Fisher information and the SRL --------------------------------

def derivative_matrix(freqs: dict, support: np.ndarray, gains: np.ndarray,
                      delta_tau_s: np.ndarray, multiband: bool) -> np.ndarray:
    """D = d mu / d theta of the two-path mean, one matrix per separation.

    mu(f) = e^{j phi_m} e^{-j 2 pi n f_s,m delta_m} sum_k alpha_k e^{-j 2 pi f tau_k}
    with tau = (0, dtau), evaluated at phi = delta = 0 and pinned f. Columns:
    tau_1, tau_2, Re alpha (2), Im alpha (2), then for multiband phi_2..phi_M
    and delta_1..delta_M. Shape (B, S, dim).
    """
    f = freqs["pinned"][support]
    dt = np.atleast_1d(np.asarray(delta_tau_s, dtype=float))
    tau = np.stack([np.zeros_like(dt), dt], axis=1)                 # (B, 2)
    e = np.exp(-2j * np.pi * f[None, :, None] * tau[:, None, :])    # (B, S, 2)
    cols = [-2j * np.pi * f[None, :, None] * gains[None, None, :] * e, e, 1j * e]
    if multiband:
        mu = (e * gains[None, None, :]).sum(axis=2)                 # (B, S)
        band = freqs["band"][support]
        n_bands = int(freqs["band"].max()) + 1
        nf = freqs["local"][support] * freqs["spacing"][support]
        phi = np.stack([1j * mu * (band == m) for m in range(1, n_bands)], axis=2)
        dl = np.stack([-2j * np.pi * nf * mu * (band == m) for m in range(n_bands)], axis=2)
        cols += [phi, dl]
    return np.concatenate(cols, axis=2)


def crb_delta_tau(freqs: dict, support: np.ndarray, gains, noise_std: float,
                  delta_tau_s, prior_std_s: float | None) -> np.ndarray:
    """CRB of tau_2 - tau_1 from J = 2/sigma^2 Re(D^H D) (+ the timing prior).

    Parameters that no supported subcarrier informs are dropped. The inverse
    is taken on the Jacobi-scaled matrix through its eigen-decomposition;
    where the scaled matrix is numerically singular (condition above 1e14)
    the separation counts as unresolvable and the CRB is +inf.
    """
    gains = np.asarray(gains, dtype=complex)
    multiband = prior_std_s is not None
    D = derivative_matrix(freqs, support, gains, delta_tau_s, multiband)
    J = 2.0 / noise_std**2 * np.real(np.conj(D).transpose(0, 2, 1) @ D)
    if multiband:
        n_bands = int(freqs["band"].max()) + 1
        idx = J.shape[1] - n_bands + np.arange(n_bands)
        J[:, idx, idx] += 1.0 / prior_std_s**2
    keep = ~np.all(J == 0.0, axis=(0, 1))
    J = J[:, keep][:, :, keep]
    s = 1.0 / np.sqrt(np.diagonal(J, axis1=1, axis2=2))
    Js = J * s[:, :, None] * s[:, None, :]
    d = np.zeros(J.shape[1])
    d[0], d[1] = -1.0, 1.0
    u = d[None, :] * s
    lam, vec = np.linalg.eigh(Js)
    proj = np.einsum("bji,bj->bi", vec, u)
    crb = np.sum(proj**2 / lam, axis=1)
    bad = (lam[:, 0] <= 1e-14 * lam[:, -1]) | ~np.isfinite(crb) | (crb <= 0)
    return np.where(bad, np.inf, crb)


def smallest_srl(freqs: dict, support: np.ndarray, gains, noise_std: float,
                 prior_std_s: float | None, tau_lo_s: float, tau_hi_s: float,
                 step_s: float = 0.005e-9) -> float | None:
    """Smallest root of g(t) = t - sqrt(CRB(t)) in [tau_lo, tau_hi], or None.

    g is scanned from tau_lo in steps of step_s (default 5 ps, half the
    program's default search step); the first bracket where g turns from
    < 0 to >= 0 is solved by Brent's method to 1e-17 s.
    """
    def g(t):
        crb = crb_delta_tau(freqs, support, gains, noise_std, t, prior_std_s)
        return np.where(np.isfinite(crb), np.atleast_1d(t) - np.sqrt(crb), -np.inf)

    grid = np.arange(tau_lo_s, tau_hi_s + 0.5 * step_s, step_s)
    if g(grid[:1])[0] >= 0:
        return None  # root below the search window
    for s in range(0, len(grid) - 1, 512):
        block = grid[s:s + 513]
        vals = g(block)
        up = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
        if len(up):
            i = int(up[0])
            return brentq(lambda t: float(g(t)[0]), block[i], block[i + 1], xtol=1e-17)
    return None


# --- channels --------------------------------------------------------------

def channel(freqs_hz: np.ndarray, delays_s: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Multipath frequency response sum_k alpha_k e^{-j 2 pi f tau_k}."""
    return np.exp(-2j * np.pi * np.outer(freqs_hz, delays_s)) @ np.asarray(gains, dtype=complex)


def nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sum(np.abs(estimate - truth) ** 2) / np.sum(np.abs(truth) ** 2))


# --- artifacts -------------------------------------------------------------

def trace_values(csv_text: str) -> list[float]:
    """best_fitness column of an optimize trace CSV (comment lines skipped)."""
    rows = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    col = header.index("best_fitness")
    return [float(r.split(",")[col]) for r in rows[1:]]
