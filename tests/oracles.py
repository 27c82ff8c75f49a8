"""Independent oracles the tests check the closed-form implementations against.

Everything here is deliberately written from the underlying definitions
(quadrature, finite differences, scalar loops) rather than reusing any code
path it is meant to verify.
"""

import numpy as np


def zc_reference(length: int, root: int) -> np.ndarray:
    """Unshifted Zadoff-Chu sequence of prime length, elementwise formula."""
    out = np.empty(length, dtype=complex)
    for n in range(length):
        out[n] = np.exp(-1j * np.pi * root * n * (n + 1) / length)
    return out


def steering_scalar_loop(freqs_hz, tau_s) -> np.ndarray:
    """Per-subcarrier scalar evaluation of the steering element."""
    out = np.empty(len(freqs_hz), dtype=complex)
    for i, f in enumerate(freqs_hz):
        out[i] = np.exp(-2j * np.pi * f * tau_s)
    return out


def dirichlet_magnitude(p: int, fs_hz: float, delta_tau_s) -> np.ndarray:
    """|sin(pi P fs t) / sin(pi fs t)| with the t -> 0 limit P."""
    t = np.atleast_1d(np.asarray(delta_tau_s, dtype=float))
    num = np.sin(np.pi * p * fs_hz * t)
    den = np.sin(np.pi * fs_hz * t)
    out = np.where(np.abs(den) < 1e-300, float(p), np.abs(num / np.where(den == 0, 1, den)))
    return out


def isl_quadrature(freqs_hz: np.ndarray, w: np.ndarray, a_s: float, b_s: float,
                   points_per_lobe: int = 4096) -> float:
    """Direct numerical integration of the normalized side-lobe energy.

    Composite trapezoid over [a, b] (the symmetric half doubles the value)
    with at least points_per_lobe nodes per main-lobe width of the aperture.
    """
    sup = np.asarray(freqs_hz, dtype=float)[np.asarray(w) != 0]
    span = sup.max() - sup.min() if len(sup) > 1 else 1.0
    lobe = 1.0 / max(span, 1.0)
    n_pts = max(int(np.ceil((b_s - a_s) / lobe)), 1) * points_per_lobe + 1
    t = np.linspace(a_s, b_s, n_pts)
    # stream in blocks to bound memory at large node counts
    acc = 0.0
    prev_val = None
    block = 200_000
    for start in range(0, n_pts, block):
        tt = t[start:start + block]
        chi2 = np.abs(np.exp(-2j * np.pi * np.outer(tt, sup)).sum(axis=1)) ** 2
        if prev_val is not None:
            chi2 = np.concatenate(([prev_val], chi2))
            tt = np.concatenate(([t[start - 1]], tt))
        acc += np.trapezoid(chi2, tt)
        prev_val = chi2[-1]
    measure = 2.0 * (b_s - a_s)
    return 2.0 * acc / (measure * float(np.sum(w)) ** 2)


def isl_region_integral_cos(k_delta_f: float, a_s: float, b_s: float,
                            n_pts: int = 400_001) -> float:
    """Trapezoidal integral of 2 cos(2 pi df t) over [a, b] (one G entry)."""
    t = np.linspace(a_s, b_s, n_pts)
    return float(np.trapezoid(2.0 * np.cos(2 * np.pi * k_delta_f * t), t))


def fd_expected_hessian(objective, theta0: np.ndarray, probe_steps: np.ndarray
                        ) -> np.ndarray:
    """Central second differences of a scalar objective with objective(theta0) = 0.

    The step per parameter is rescaled to sit at a fixed dimensionless
    curvature, which keeps the differencing accurate across parameters whose
    natural scales differ by many orders of magnitude.
    """
    n = len(theta0)
    h = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = probe_steps[i]
        jii = (objective(theta0 + e) + objective(theta0 - e)) / probe_steps[i] ** 2
        h[i] = 1e-3 / np.sqrt(jii) if jii > 1e-30 else probe_steps[i]
    hess = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (objective(theta0 + ei) + objective(theta0 - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                objective(theta0 + ei + ej) - objective(theta0 + ei - ej)
                - objective(theta0 - ei + ej) + objective(theta0 - ei - ej)
            ) / (4 * h[i] * h[j])
    return hess


def fd_fim_single(w, spacing_hz, noise_std, gains, delta_tau_s, tau1_s=0.0):
    """Finite-difference expected Hessian of the single-band two-path model."""
    fsup = np.flatnonzero(w) * spacing_hz

    def mu(theta):
        taus = theta[:2]
        amps = theta[2:4] + 1j * theta[4:6]
        return (amps[None, :] * np.exp(-2j * np.pi * np.outer(fsup, taus))).sum(axis=1)

    theta0 = np.array([tau1_s, tau1_s + delta_tau_s,
                       gains[0].real, gains[1].real, gains[0].imag, gains[1].imag])
    mu0 = mu(theta0)

    def objective(theta):
        return np.sum(np.abs(mu0 - mu(theta)) ** 2) / noise_std**2

    probe = np.array([1e-13, 1e-13, 1e-4, 1e-4, 1e-4, 1e-4])
    return fd_expected_hessian(objective, theta0, probe)


def fd_fim_multiband(layout, w, noise_std, gains, delta_tau_s, prior_std_s,
                     tau1_s=0.0, phi_true=None, delta_true=None):
    """Finite-difference expected Hessian of the multiband model with the
    timing-offset prior folded into the objective."""
    sup = np.asarray(w) != 0
    fsup = layout.pinned_frequencies_hz[sup]
    band = layout.band_index[sup]
    nloc = layout.local_index[sup]
    fsb = np.array([b.spacing_hz for b in layout.subbands])
    m_bands = layout.n_bands

    def mu(theta):
        taus = theta[:2]
        amps = theta[2:4] + 1j * theta[4:6]
        phi = np.concatenate([[0.0], theta[6:6 + m_bands - 1]])
        delta = theta[6 + m_bands - 1:]
        h = (amps[None, :] * np.exp(-2j * np.pi * np.outer(fsup, taus))).sum(axis=1)
        return h * np.exp(1j * phi[band] - 2j * np.pi * nloc * fsb[band] * delta[band])

    phi_true = np.zeros(m_bands - 1) if phi_true is None else np.asarray(phi_true)
    delta_true = np.zeros(m_bands) if delta_true is None else np.asarray(delta_true)
    theta0 = np.concatenate([
        [tau1_s, tau1_s + delta_tau_s],
        [gains[0].real, gains[1].real, gains[0].imag, gains[1].imag],
        phi_true, delta_true])
    mu0 = mu(theta0)
    d0 = np.sum(delta_true**2)

    def objective(theta):
        delta = theta[6 + m_bands - 1:]
        return (np.sum(np.abs(mu0 - mu(theta)) ** 2) / noise_std**2
                + (np.sum(delta**2) - d0) / (2 * prior_std_s**2))

    probe = np.concatenate([[1e-13, 1e-13], [1e-4] * 4,
                            [1e-4] * (m_bands - 1), [1e-13] * m_bands])
    return fd_expected_hessian(objective, theta0, probe)


def fim_two_path_direct(freqs_hz, noise_std, gains, delta_tau_s) -> np.ndarray:
    """Exact 6x6 two-path FIM, (2 / sigma^2) Re(D^H D), from the per-subcarrier
    derivatives D of the noiseless model in [tau (2), a^R (2), a^I (2)]."""
    f = np.asarray(freqs_hz, dtype=float)
    gains = np.asarray(gains, dtype=complex)
    steer = np.exp(-2j * np.pi * np.outer(f, [0.0, delta_tau_s]))  # (S, 2)
    d = np.concatenate([-2j * np.pi * f[:, None] * gains[None, :] * steer,
                        steer, 1j * steer], axis=1)
    return 2.0 / noise_std**2 * (d.conj().T @ d).real


def fim_scaled_error(J: np.ndarray, J_ref: np.ndarray) -> float:
    """Worst elementwise error normalized per element by sqrt(Jii * Jjj)."""
    d = np.sqrt(np.abs(np.diag(J_ref)))
    d[d == 0] = 1.0
    return float(np.max(np.abs(J - J_ref) / np.outer(d, d)))


def crb_delta_tau_quadform(J: np.ndarray, cond_cap: float = 1e12) -> float:
    """CRB of tau_2 - tau_1 via the generic form d^T J^{-1} d, d = [-1, 1, 0, ...].

    All-zero rows/columns are dropped first, and a Jacobi-scaled condition
    number above cond_cap counts as unresolvable (+inf).
    """
    J = np.asarray(J, dtype=float)
    keep = ~np.all(J == 0.0, axis=0)
    if not (keep[0] and keep[1]):
        return np.inf
    Jr = J[np.ix_(keep, keep)]
    d = np.diag(Jr)
    if np.any(d <= 0):
        return np.inf
    ds = np.sqrt(d)
    Js = Jr / np.outer(ds, ds)
    eig = np.linalg.eigvalsh(Js)
    if eig[0] <= 0 or eig[-1] / eig[0] > cond_cap:
        return np.inf
    dvec = np.zeros(Jr.shape[0])
    dvec[0], dvec[1] = -1.0, 1.0
    u = dvec / ds  # J^{-1} = D^{-1} Js^{-1} D^{-1} with D = diag(ds)
    return float(u @ np.linalg.solve(Js, u))


def crb_eig_inv(J: np.ndarray, cond_cap: float = 1e12) -> np.ndarray:
    """CRB of tau_2 - tau_1 for each FIM of a (..., D, D) stack from the whole
    inverse, +inf where unresolvable: the delay corner of inv(J), each FIM on
    its own. A nuisance with an exactly zero row gets a unit diagonal entry;
    the FIM is Jacobi-scaled to a unit diagonal, and a non-positive smallest
    eigenvalue or a condition number above cond_cap counts as unresolvable."""
    J = np.asarray(J, dtype=float)
    shape, dim = J.shape[:-2], J.shape[-1]
    idle = np.all(J == 0.0, axis=-1) & (np.arange(dim) >= 2)  # never the delays
    J = (J + idle[..., None] * np.eye(dim)).reshape(-1, dim, dim)
    out = np.full(len(J), np.inf)
    diag = np.diagonal(J, axis1=1, axis2=2)
    ok = np.all(diag > 0, axis=1)
    ds = np.sqrt(np.where(diag > 0, diag, 1.0))
    Js = J / (ds[:, :, None] * ds[:, None, :])
    Js[~ok] = np.eye(dim)  # placeholder keeps the batched algebra finite
    eig = np.linalg.eigvalsh(Js)
    ok &= (eig[:, 0] > 0) & (eig[:, -1] <= cond_cap * np.maximum(eig[:, 0], 1e-300))
    if np.any(ok):
        Ji = np.linalg.inv(Js[ok])
        d00, d11 = ds[ok, 0], ds[ok, 1]
        val = (Ji[:, 0, 0] / d00**2 + Ji[:, 1, 1] / d11**2
               - (Ji[:, 0, 1] + Ji[:, 1, 0]) / (d00 * d11))
        out[np.flatnonzero(ok)[val > 0]] = val[val > 0]
    return out.reshape(shape)


def fim_multiband_loop(f_support, band_support, nloc_support, band_spacings, n_bands,
                       noise_std, gains, delta_taus, prior_std_s):
    """Multiband FIM stacks (total, observation-only) summed band by band.

    The nuisance rows are explicit per-band sums over the path-sum profile
    H(f) = sum_k alpha_k e^{-j 2 pi f tau_k} with tau = (0, dtau); the
    [tau, a^R, a^I] block is ``fim_two_path_direct`` at each separation.
    """
    al = np.asarray(gains, dtype=complex)
    dt = np.asarray(delta_taus, dtype=float)
    c = 1.0 / noise_std**2
    dim = 6 + (n_bands - 1) + n_bands

    ephase = np.exp(2j * np.pi * dt[:, None] * f_support[None, :])  # (B, S)
    H = al[0] + al[1] * ephase.conj()
    absH2 = np.abs(H) ** 2
    vr_pick = (np.ones_like(ephase), ephase)  # e^{j 2 pi f tau_r}

    J = np.zeros((len(dt), dim, dim))
    for k, d in enumerate(dt):
        J[k, :6, :6] = fim_two_path_direct(f_support, noise_std, al, d)
    for r in range(2):
        vr_h = vr_pick[r] * H  # sum_k alpha_k e^{j 2 pi f (tau_r - tau_k)}
        for i in range(n_bands):
            m = band_support == i
            nf = nloc_support[m] * band_spacings[i]
            if i >= 1:
                cphi = 6 + (i - 1)
                v = -4 * np.pi * c * np.sum(
                    f_support[m] * (np.conj(al[r]) * vr_h[:, m]).real, axis=1)
                J[:, r, cphi] = J[:, cphi, r] = v
                v = 2 * c * np.sum((1j * vr_h[:, m]).real, axis=1)
                J[:, 2 + r, cphi] = J[:, cphi, 2 + r] = v
                v = 2 * c * np.sum(vr_h[:, m].real, axis=1)
                J[:, 4 + r, cphi] = J[:, cphi, 4 + r] = v
            cdel = 6 + (n_bands - 1) + i
            v = 8 * np.pi**2 * c * np.sum(
                nf * f_support[m] * (np.conj(al[r]) * vr_h[:, m]).real, axis=1)
            J[:, r, cdel] = J[:, cdel, r] = v
            v = -4 * np.pi * c * np.sum((1j * nf * vr_h[:, m]).real, axis=1)
            J[:, 2 + r, cdel] = J[:, cdel, 2 + r] = v
            v = -4 * np.pi * c * np.sum(nf * vr_h[:, m].real, axis=1)
            J[:, 4 + r, cdel] = J[:, cdel, 4 + r] = v
    for i in range(n_bands):
        m = band_support == i
        nf = nloc_support[m] * band_spacings[i]
        cdel = 6 + (n_bands - 1) + i
        if i >= 1:
            cphi = 6 + (i - 1)
            J[:, cphi, cphi] = 2 * c * np.sum(absH2[:, m], axis=1)
            v = -4 * np.pi * c * np.sum(nf * absH2[:, m], axis=1)
            J[:, cphi, cdel] = J[:, cdel, cphi] = v
        J[:, cdel, cdel] = 8 * np.pi**2 * c * np.sum(nf**2 * absH2[:, m], axis=1)

    J_obs = J.copy()
    didx = 6 + (n_bands - 1) + np.arange(n_bands)
    J[:, didx, didx] += 1.0 / prior_std_s**2
    return J, J_obs


def multiband_weights_per_call(layout, sup) -> np.ndarray:
    """(..., S, 3 + 5M) multiband moment weights of the support indices sup,
    built from the support's own frequencies, bands and local indices: f^k
    (k = 0, 1, 2), then 1, f, nf, nf f and nf^2 (nf = n f_s,m) per band, weight
    by weight, each zero outside its band."""
    f_sup = layout.pinned_frequencies_hz[sup]
    band = layout.band_index[sup]
    spacings = np.array([sb.spacing_hz for sb in layout.subbands])
    nf = layout.local_index[sup] * spacings[band]
    powers = np.stack([np.ones_like(f_sup), f_sup, f_sup**2], axis=-1)
    per_band = np.stack([np.ones_like(f_sup), f_sup, nf, nf * f_sup, nf**2], axis=-1)
    onehot = band[..., None] == np.arange(layout.n_bands)
    table = (per_band[..., :, None] * onehot[..., None, :]).reshape(sup.shape + (-1,))
    return np.concatenate([powers, table], axis=-1)


def repair_serial(draw, budgets, prob) -> np.ndarray:
    """Structural repair of one raw Bernoulli draw (N, G), slot by slot and row by row.

    Row conflicts keep the cell whose group currently lacks the most pilots
    (ties: lowest group index); column sums are then trimmed at the lowest
    cell probabilities and padded at empty rows with the highest ones.
    """
    mask = np.asarray(draw).astype(np.uint8)
    budgets = np.asarray(budgets, dtype=int)
    counts = mask.sum(axis=0).astype(int)
    conflicted = np.flatnonzero(mask.sum(axis=1) > 1)
    for n in conflicted:
        groups = np.flatnonzero(mask[n])
        keep = groups[np.argmax(budgets[groups] - counts[groups])]
        for g in groups:
            if g != keep:
                mask[n, g] = 0
                counts[g] -= 1
    for g in range(mask.shape[1]):  # trim overfull columns first to free rows
        excess = counts[g] - budgets[g]
        if excess > 0:
            own = np.flatnonzero(mask[:, g])
            drop = own[np.argsort(prob[own, g], kind="stable")[:excess]]
            mask[drop, g] = 0
            counts[g] = budgets[g]
    for g in range(mask.shape[1]):
        deficit = budgets[g] - counts[g]
        if deficit > 0:
            empty = np.flatnonzero(mask.sum(axis=1) == 0)
            add = empty[np.argsort(-prob[empty, g], kind="stable")[:deficit]]
            mask[add, g] = 1
            counts[g] = budgets[g]
    return mask


def slot_draw(seed, key, r, q, n_slots, shape):
    """The r-th uniform draw of EDA slot q under key (0: initial population, it:
    generation it): row q of retry round r's full (n_slots, *shape) block."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key, r)))
    return rng.random((n_slots,) + tuple(shape))[q]


def ranked_mask(u, budgets) -> np.ndarray:
    """The budgeted mask (N, G) of one uniform row u (N,): the subcarriers in
    ascending order of u are dealt out to group 0, then group 1, and so on."""
    order = np.argsort(u)
    mask = np.zeros((len(u), len(budgets)), dtype=np.uint8)
    start = 0
    for g, p in enumerate(budgets):
        mask[order[start:start + p], g] = 1
        start += p
    return mask


def isl_scalar(matrix, w) -> float:
    """ISL of one pattern column as the scalar quadratic form w G w / (|R| p^2)."""
    w = np.asarray(w, dtype=float)
    p = w.sum()
    return float(w @ matrix.matrix @ w) / (matrix.region.measure_s * p * p)


def run_eda_serial(layout, cfg):
    """The EDA one slot and one draw at a time: each slot's draws are repaired by
    ``repair_serial`` and gated alone, group by group, with every (group,
    column) decided by a fresh ``srl_at_most`` scan (memoized per pair). A
    slot's r-th draw is its row of the whole block of retry round r, drawn
    afresh for every slot and round."""
    from pilotforge.ambiguity import isl_matrix
    from pilotforge.optimizer import (EdaResult, InfeasibleSamplingError, _fitness_many,
                                      random_srl_reference, update_probabilities)
    from pilotforge.resolution import pattern_crb_provider, srl_at_most, srl_of_pattern
    from pilotforge.waveform import PatternSet

    n_groups = len(cfg.budgets)
    budgets = np.asarray(cfg.budgets, dtype=int)
    gains = np.asarray(cfg.offline_gains, dtype=complex)
    prior = cfg.prior_std_s if layout.mode == "multi" else None
    if cfg.srl_ceilings_s is not None:
        beta = np.asarray(cfg.srl_ceilings_s, dtype=float)
    else:
        beta = cfg.beta_margin * random_srl_reference(layout, cfg)
    matrix = isl_matrix(layout, cfg.region)
    answers = {}

    def gate(mask):
        for g in range(n_groups):
            key = (g, mask[:, g].tobytes())
            if key not in answers:
                provider = pattern_crb_provider(layout, mask[:, g], cfg.offline_noise_std,
                                                gains, prior)
                answers[key] = srl_at_most(provider, beta[g], cfg.gate_step_s)
            if not answers[key]:
                return False
        return True

    rejected = 0
    population = []
    for q in range(cfg.population):
        for r in range(cfg.retry_cap):
            mask = ranked_mask(slot_draw(cfg.seed, 0, r, q, cfg.population, (layout.n_total,)),
                               budgets)
            if gate(mask):
                break
            rejected += 1
        else:
            raise InfeasibleSamplingError(cfg.retry_cap, "initial population")
        population.append(mask)
    population = np.stack(population)
    fits = _fitness_many(population, matrix)
    best_idx = int(np.argmin(fits))
    best_mask, best_fit = population[best_idx].copy(), float(fits[best_idx])
    trace = [best_fit]
    for it in range(1, cfg.iterations + 1):
        prob = update_probabilities(population[np.argsort(fits, kind="stable")[:cfg.elite]])
        new_pop = [best_mask]
        for q in range(cfg.population - 1):
            for r in range(cfg.retry_cap):
                draw = slot_draw(cfg.seed, it, r, q, cfg.population - 1, prob.shape)
                mask = repair_serial(draw < prob, budgets, prob)
                if gate(mask):
                    break
                rejected += 1
            else:
                raise InfeasibleSamplingError(cfg.retry_cap, "sampler")
            new_pop.append(mask)
        population = np.stack(new_pop)
        fits = _fitness_many(population, matrix)
        best_idx = int(np.argmin(fits))
        if fits[best_idx] < best_fit:
            best_fit = float(fits[best_idx])
            best_mask = population[best_idx].copy()
        trace.append(best_fit)
    prob = update_probabilities(population[np.argsort(fits, kind="stable")[:cfg.elite]])
    best = PatternSet(best_mask)
    srls = tuple(srl_of_pattern(layout, best.column(g), cfg.offline_noise_std, gains, prior,
                                cfg.final_search) for g in range(n_groups))
    isl_pg = np.array([matrix.isl(best.column(g)) for g in range(n_groups)])
    return EdaResult(best, best_fit, np.asarray(trace), prob, tuple(beta), isl_pg, srls,
                     rejected)


def extensions_projected(model, target, beam, grid, cols, spacing):
    """One-path extensions of a beam, ranked on an explicitly projected grid:
    each kept set's span (orthonormal basis q) is projected off the target and
    off every fine-grid column, c' = c - q q^H c, and a column's gain is
    |c'^H r|^2 / ||c'||^2. Returns (the _VP_BEAM best extensions, best
    projected residual first; each set's (T,) gains)."""
    from pilotforge.receiver import _VP_BEAM, _peaks
    extended, gains = {}, []
    for chosen in beam:
        r, c = target, cols
        if len(chosen):
            q = np.linalg.qr(model.columns(chosen[None, :])[0])[0]
            r = target - q @ (q.conj().T @ target)
            c = cols - q @ (q.conj().T @ cols)
        norm = np.sum(np.abs(c) ** 2, axis=0)
        gain = np.abs(c.conj().T @ r) ** 2 / np.where(norm > 0, norm, np.inf)
        gains.append(gain)
        idx, heights = _peaks(np.concatenate(([0.0], gain, [0.0])), 0.0, spacing)
        rest = float(np.sum(np.abs(r) ** 2))
        for i in np.argsort(-heights, kind="stable")[:_VP_BEAM]:
            ext = np.sort(np.append(chosen, grid[idx[i] - 1]))
            extended[tuple(ext)] = (rest - heights[i], ext)
    ranked = sorted(extended.values(), key=lambda item: item[0])[:_VP_BEAM]
    return [ext for _, ext in ranked], gains
