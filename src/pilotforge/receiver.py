"""Receiver chain: code-domain decoupling, ML path estimation, extrapolation.

Decoupling multiplies the received vector by the conjugated pilot of the
target user, moves to the delay domain with a unitary transform, zeroes every
bin outside the delay-spread gate, and returns to the frequency domain. Code
users of the same group separate because their cyclic shifts park each other's
energy far outside the gate; residual leakage is governed by the pattern's AF
side lobes. Path delays/gains are then fit by maximum likelihood: the gains
are solved by linear least squares at every delay set, and the delays are
searched by a deterministic variable-projection stage: a beam search whose
stages are each settled as one stack of delay sets, polished by
Levenberg-Marquardt and walked across |chi| fringes, where a walk ranks its
fringe-moved copies by the residual one Gauss-Newton step predicts and
polishes only the best few. The full-band channel is rebuilt from the fitted
paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.signal import find_peaks

from .waveform import (BandLayout, ChannelParams, PatternSet, PilotSequence,
                       channel_frequency_response, draw_channels,
                       orthogonal_sequence_family, random_patterns,
                       synthesize_received, uniform_patterns)

__all__ = [
    "EstimationError",
    "DecoupledObservation",
    "PathEstimate",
    "PsoConfig",
    "check_gate",
    "decouple",
    "profile_peak_delays",
    "estimate_paths_psols",
    "path_residual",
    "extrapolate_fullband",
    "nmse",
    "SimulationOutcome",
    "run_extrapolation_sim",
    "baseline_schemes",
]

_MAX_UNION_GRID = 1 << 22


class EstimationError(ValueError):
    """The observation cannot identify the requested multipath model."""


@dataclass(frozen=True)
class DecoupledObservation:
    """Per-user output of the interference-cancellation procedure."""

    user: tuple[int, int]
    recovered: np.ndarray       # frequency domain, zero off the pattern support
    delay_gated: np.ndarray     # gated delay-domain vector on the transform grid
    gate_s: tuple[float, float]
    delay_bin_s: float          # delay resolution of the transform grid
    grid_positions: np.ndarray  # subcarrier slots inside the transform grid
    gate_bins: np.ndarray       # delay-grid bins retained by the gate


@dataclass(frozen=True)
class PathEstimate:
    """Delay/gain fit of one user, delays ascending."""

    delays_s: np.ndarray
    gains: np.ndarray
    residual: float
    n_paths: int


@dataclass(frozen=True)
class PsoConfig:
    """Model-order settings of the maximum-likelihood path fit."""

    max_paths: int = 8
    peak_threshold_db: float = 13.0


def _transform_grid(layout: BandLayout) -> tuple[np.ndarray, int, float]:
    """Positions of the layout's subcarriers inside a uniform transform grid.

    Single band: the grid is the band itself. Multiband: the union grid at the
    coarsest spacing dividing every subcarrier offset (zero padding across the
    band gaps), so one unitary IDFT covers all subbands coherently.
    """
    if layout.mode == "single":
        n = layout.n_total
        return np.arange(n), n, layout.subbands[0].spacing_hz
    f = layout.frequencies_hz
    offsets = np.rint(f - f[0]).astype(np.int64)
    if np.max(np.abs((f - f[0]) - offsets)) > 1e-6:
        raise ValueError("subcarrier frequencies must sit on an integer-hertz grid")
    spacing = int(np.gcd.reduce(offsets[offsets > 0]))
    positions = offsets // spacing
    length = int(positions[-1]) + 1
    if length > _MAX_UNION_GRID:
        raise ValueError(f"union transform grid of {length} points is too large; "
                         f"subband placement is too incommensurate")
    return positions, length, float(spacing)


def check_gate(layout: BandLayout, gate_s: tuple[float, float]) -> None:
    """Raise ValueError unless gate_s = (lo, hi) is a delay gate the layout can resolve.

    The gate must satisfy 0 <= lo < hi and end inside the unambiguous delay
    range of the layout's transform grid.
    """
    lo, hi = gate_s
    if not 0 <= lo < hi:
        raise ValueError("gate must satisfy 0 <= lo < hi")
    spacing = _transform_grid(layout)[2]
    if hi > 1.0 / spacing:
        raise ValueError(f"gate of {hi:.3e} s exceeds the unambiguous delay range "
                         f"{1.0 / spacing:.3e} s")


def decouple(layout: BandLayout, y: np.ndarray, w: np.ndarray, x: PilotSequence,
             gate_s: tuple[float, float], user: tuple[int, int] = (0, 0)
             ) -> DecoupledObservation:
    """Three-step interference cancellation for one user.

    (1) strip the user's code: diag(w * conj(x)) y; (2) unitary IDFT to the
    delay domain; (3) zero the bins whose delay falls outside [gate lo, hi],
    then transform back and re-mask with w.
    """
    n = layout.n_total
    if len(y) != n or len(w) != n or len(x) != n:
        raise ValueError("y, pattern column, and sequence must match the layout size")
    check_gate(layout, gate_s)
    lo, hi = gate_s
    positions, length, spacing = _transform_grid(layout)
    stripped = np.asarray(w) * np.conj(x.values) * np.asarray(y)
    grid = np.zeros(length, dtype=complex)
    grid[positions] = stripped
    delay = np.fft.ifft(grid) * np.sqrt(length)   # unitary, bin k at k/(L*df)
    bin_s = 1.0 / (length * spacing)
    bins = np.arange(length) * bin_s
    keep = (bins >= lo) & (bins <= hi)
    gated = np.where(keep, delay, 0.0)
    back = np.fft.fft(gated) / np.sqrt(length)
    recovered = np.asarray(w) * back[positions]
    return DecoupledObservation((int(user[0]), int(user[1])), recovered, gated,
                                (float(lo), float(hi)), bin_s, positions,
                                np.flatnonzero(keep))


def profile_peak_delays(obs: DecoupledObservation, max_paths: int = 8,
                        threshold_db: float = 13.0) -> np.ndarray:
    """Model-order initializer: delays of the gated delay-profile peaks.

    Peaks are local maxima of the power profile |y^D|^2 at least threshold_db
    below the tallest one (the default sits just above the first side lobe of
    a rectangular aperture); the profile is zero-padded so gate-edge bins can
    qualify. Falls back to the single tallest bin when nothing qualifies.
    """
    prof = np.abs(obs.delay_gated) ** 2
    if prof.max() == 0:
        return np.array([obs.gate_s[0]])
    padded = np.concatenate(([0.0], prof, [0.0]))
    height = prof.max() * 10 ** (-threshold_db / 10.0)
    idx, props = find_peaks(padded, height=height)
    idx = idx - 1
    if len(idx) == 0:
        idx = np.array([int(np.argmax(prof))])
    elif len(idx) > max_paths:
        order = np.argsort(-props["peak_heights"], kind="stable")[:max_paths]
        idx = np.sort(idx[order])
    return idx * obs.delay_bin_s


def _ridged(gram: np.ndarray) -> np.ndarray:
    """Stack of normal matrices with a small ridge on the near-singular ones."""
    eig = np.linalg.eigvalsh(gram)
    bad = (eig[:, 0] <= 0) | (eig[:, -1] > 1e12 * np.maximum(eig[:, 0], 1e-300))
    if np.any(bad):
        ridge = 1e-9 * np.trace(gram, axis1=1, axis2=2).real / gram.shape[1]
        gram = gram + (bad * np.maximum(ridge, 1e-30))[:, None, None] * np.eye(gram.shape[1])
    return gram


def _batched_ls(steering: np.ndarray, target: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares gains and residuals for a stack of steering matrices.

    steering: (P, S, K); target: (S,). Near-singular normal matrices get a
    small ridge.
    """
    herm = steering.conj().transpose(0, 2, 1)
    gram = _ridged(herm @ steering)
    gains = np.linalg.solve(gram, (herm @ target)[..., None])[..., 0]
    fitted = (steering @ gains[..., None])[..., 0]
    residual = np.sum(np.abs(target[None, :] - fitted) ** 2, axis=1)
    return gains, residual


class _GatedModel:
    """The multipath model pushed through an observation's delay gate.

    Delays map to gated delay-bin columns; the gains of any delay set follow
    in closed form by least squares, which concentrates them out of the fit.
    """

    def __init__(self, obs: DecoupledObservation, support: np.ndarray):
        length = len(obs.delay_gated)
        slots = obs.grid_positions[support]
        grid_spacing = 1.0 / (obs.delay_bin_s * length)
        self.f_grid = slots * grid_spacing  # frequency relative to the first subcarrier
        # gate rows of the unitary subcarrier -> delay-bin transform
        self.gate_map = np.exp(2j * np.pi * np.outer(obs.gate_bins, slots)
                               / length) / np.sqrt(length)
        self.target = obs.delay_gated[obs.gate_bins]
        self._slots, self._bins, self._length = slots, obs.gate_bins, length

    def _steer(self, delays: np.ndarray) -> np.ndarray:
        """Support-domain steering rows, (U, S), of a vector of delays."""
        return np.exp(-2j * np.pi * delays[:, None] * self.f_grid[None, :])

    def columns(self, delays: np.ndarray) -> np.ndarray:
        """Gated steering columns, shape (P, G, K), for delays of shape (P, K)."""
        distinct, at = np.unique(delays, return_inverse=True)
        rows = self._steer(distinct) @ self.gate_map.T
        return rows[at.reshape(delays.shape)].transpose(0, 2, 1)

    def grid_columns(self, oversample: int, count: int) -> np.ndarray:
        """Gated steering columns, (G, T), of the delays t * bin / oversample, t < count.

        With t = oversample * q + p, the entry of gate bin b depends on b - q and
        p only, so a kernel over the distinct b - q and the oversample phases p
        gives them all with far fewer exponentials than the (G, T) product.
        """
        length, slots = self._length, self._slots
        shift = np.arange(self._bins.min() - (count - 1) // oversample, self._bins.max() + 1)
        phase = np.arange(oversample)
        kernel = (np.exp(2j * np.pi * np.outer(shift, slots) / length)
                  @ np.exp(-2j * np.pi * np.outer(slots, phase) / (oversample * length))
                  / np.sqrt(length))
        t = np.arange(count)
        row = self._bins[:, None] - t // oversample - shift[0]
        return kernel.ravel()[oversample * row + t % oversample]

    def fit(self, delays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares gains and residuals for delays of shape (P, K)."""
        return _batched_ls(self.columns(delays), self.target)

    def linearize(self, delays: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residuals, Gauss-Newton matrices and steepest-descent directions.

        For delays of shape (P, K): the residual r = t - A g with the gains g
        solved, Re(D^H D) and Re(D^H r), where D = P_A^perp dA/dtau g is
        Kaufman's variable-projection Jacobian of the fitted model (Kaufman
        1975); the residual gradient it gives is exact. Fringe-moved copies
        of a set share most delays, so each distinct delay is gated once.
        """
        distinct, at = np.unique(delays, return_inverse=True)
        steer = self._steer(distinct)
        rows = np.concatenate([steer, (-2j * np.pi * self.f_grid) * steer]) @ self.gate_map.T
        at = at.reshape(delays.shape)
        a_rows = rows[at]                            # (P, K, G), A transposed
        a, ah = a_rows.transpose(0, 2, 1), a_rows.conj()
        gram = _ridged(ah @ a)
        gains = np.linalg.solve(gram, (ah @ self.target)[..., None])[..., 0]
        r = self.target[None, :] - (a @ gains[..., None])[..., 0]
        # d(A g)/d tau_k, column k
        moved = rows[at + len(distinct)].transpose(0, 2, 1) * gains[:, None, :]
        d = moved - a @ np.linalg.solve(gram, ah @ moved)
        dh = d.conj().transpose(0, 2, 1)
        return (np.sum(np.abs(r) ** 2, axis=1), (dh @ d).real,
                (dh @ r[..., None])[..., 0].real)


def path_residual(obs: DecoupledObservation, w: np.ndarray, delays_s) -> float:
    """Gated least-squares residual of the given path delays, gains solved.

    This is the quantity the path fit minimizes, so evaluated at the true
    delays it tells whether a fit ended short of the maximum-likelihood
    optimum.
    """
    support = np.flatnonzero(np.asarray(w))
    if len(support) == 0:
        raise ValueError("pattern column has no pilots")
    delays = np.asarray(delays_s, dtype=float)[None, :]
    return float(_GatedModel(obs, support).fit(delays)[1][0])


_VP_OVERSAMPLE = 8      # fine delay grid points per transform-grid delay bin
_VP_BEAM = 3            # partial delay sets kept per greedy stage
_VP_RANKED = 16         # best-ranked fringe-moved copies of a set quick-polished per round
_VP_LM_STEPS = 20       # cap on the Levenberg-Marquardt iterations per polish
_VP_DAMPING = 1e-3      # initial Marquardt damping, relative to the Gauss-Newton diagonal
_VP_QUICK_STEPS = 4     # iterations that pick the winner among the ranked copies
_VP_XTOL = 1e-15        # s; a row's polish stops once its proposed step is shorter
_VP_SAME = 1e-14        # s; starts closer than this settle as one (ten polish tolerances)
_VP_FRINGE_LEVEL = 0.5  # |chi| / |chi(0)| a side peak needs to count as a fringe
_VP_FRINGES = 4         # fringe offsets tried on either side of a path
_VP_FRINGE_ROUNDS = 4   # cap on the fringe-move rounds


def _lm_steps(jtj: np.ndarray, grad: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Marquardt-damped Gauss-Newton steps of a stack of delay sets.

    The damping lam of each set is scaled by its Gauss-Newton diagonal, so the
    step does not depend on the time unit.
    """
    diag = np.diagonal(jtj, axis1=1, axis2=2)
    damp = lam[:, None] * (diag + 1e-12 * diag.max(axis=1, keepdims=True)) + 1e-300
    eye = np.eye(jtj.shape[1])
    return np.linalg.solve(jtj + damp[:, :, None] * eye, grad[..., None])[..., 0]


def _polish(model: _GatedModel, starts: np.ndarray, hi: float,
            steps: int = _VP_LM_STEPS) -> tuple[np.ndarray, np.ndarray]:
    """Bounded Levenberg-Marquardt on the delays of a stack of delay sets.

    Each set (row of starts) keeps its own Marquardt damping (``_lm_steps``),
    moves only on steps that lower its residual, and stops once every
    component of its own proposed step is below _VP_XTOL; so a row's result
    does not depend on the other rows of the stack. Returns the polished,
    ascending delay sets and their residuals.
    """
    x = np.clip(starts, 0.0, hi)
    res, jtj, grad = model.linearize(x)
    lam = np.full(len(x), _VP_DAMPING)
    live = np.arange(len(x))
    for _ in range(steps):
        step = _lm_steps(jtj[live], grad[live], lam[live])
        moving = np.any(np.abs(step) >= _VP_XTOL, axis=1)
        live, step = live[moving], step[moving]
        if not len(live):
            break
        trial = np.clip(x[live] + step, 0.0, hi)
        t_res, t_jtj, t_grad = model.linearize(trial)
        ok = t_res < res[live]
        up = live[ok]
        x[up], res[up], jtj[up], grad[up] = trial[ok], t_res[ok], t_jtj[ok], t_grad[ok]
        lam[live] = np.where(ok, lam[live] / 3.0, lam[live] * 4.0)
    return np.sort(x, axis=1), res


def _fringe_offsets(f_grid: np.ndarray, step: float, span: float) -> np.ndarray:
    """Delay offsets of the strongest near-main-lobe peaks of the pattern's |chi|.

    Multiband apertures put fringes 1/(f_c,2 - f_c,1) apart inside the
    envelope's main lobe; a delay fit can settle one fringe off. Single-band
    apertures have no side peak as high as _VP_FRINGE_LEVEL, so none return.
    """
    lags = np.arange(1, int(span / step) + 1) * step
    chi = np.abs(np.exp(-2j * np.pi * np.outer(lags, f_grid)).sum(axis=1)) / len(f_grid)
    idx, props = find_peaks(np.concatenate(([1.0], chi)), height=_VP_FRINGE_LEVEL)
    order = np.argsort(-props["peak_heights"], kind="stable")[:_VP_FRINGES]
    return lags[np.sort(idx[order]) - 1]


def _fringe_moves(offsets: np.ndarray, k: int) -> np.ndarray:
    """Shifts of one path, or of a pair of paths, by +-each fringe offset."""
    shifts = np.concatenate([offsets, -offsets])
    moves = list(np.kron(shifts[:, None], np.eye(k)))
    for i, j in itertools.combinations(range(k), 2):
        for a, b in itertools.product(shifts, shifts):
            move = np.zeros(k)
            move[i], move[j] = a, b
            moves.append(move)
    return np.array(moves)


def _settle(model: _GatedModel, starts: np.ndarray, moves: np.ndarray, hi: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Polish a (B, k) stack of delay sets, then walk each across |chi| fringes.

    After a Levenberg-Marquardt polish, each round moves every set by each
    row of ``moves`` (fringe shifts of one path or a pair of paths) and ranks
    the moved copies by the residual their first Gauss-Newton step predicts:
    one linearization of all copies, no iterations. The _VP_RANKED best get
    a few iterations and the best of those a full polish. A set keeps walking
    while that lowers its residual: a path, or two coupled paths, can settle
    a fringe off together. Rows walk independently, and rows that agree to
    within _VP_SAME (a beam can hold one set several times, polished to
    within a few _VP_XTOL of itself) are settled once; returns the settled
    delay sets and their residuals.

    The concentrated cost at the moved copies alone ranks poorly: a fringe
    move lands a fraction of a fringe off the minimum it leads to, where the
    multiband cost is still high, so the copy that splits two merged paths
    can rank far down the list.
    """
    _, first, same = np.unique(np.round(starts / _VP_SAME), axis=0,
                               return_index=True, return_inverse=True)
    same = same.ravel()
    best, best_res = _polish(model, starts[first], hi)
    live = np.arange(len(best))
    for _ in range(_VP_FRINGE_ROUNDS if len(moves) else 0):
        n, k = len(live), best.shape[1]
        copies = np.clip(best[live][:, None, :] + moves[None], 0.0, hi)
        res, jtj, grad = model.linearize(copies.reshape(-1, k))
        step = _lm_steps(jtj, grad, np.full(len(res), _VP_DAMPING))
        predicted = (res - np.sum(grad * step, axis=1)).reshape(n, -1)
        top = np.argsort(predicted, axis=1, kind="stable")[:, :_VP_RANKED]
        picked = np.take_along_axis(copies, top[..., None], axis=1)
        moved, res = _polish(model, picked.reshape(-1, k), hi, _VP_QUICK_STEPS)
        pick = np.argmin(res.reshape(n, -1), axis=1)
        moved, res = _polish(model, moved.reshape(n, -1, k)[np.arange(n), pick], hi)
        better = res < best_res[live]
        live = live[better]
        best[live], best_res[live] = moved[better], res[better]
        if not len(live):
            break
    return best[same], best_res[same]


def _refine(model: _GatedModel, k: int, peaks: np.ndarray, hi: float,
            bin_s: float) -> np.ndarray:
    """Deterministic variable-projection search; returns the winning delays.

    A greedy beam search builds k-path delay sets one path at a time. Each
    stage projects the target and the columns of a grid _VP_OVERSAMPLE times
    finer than the delay bins off a kept set's span, takes the peaks of the
    one-path concentrated cost of what remains as extensions, and settles
    (``_settle``) the _VP_BEAM extensions with the lowest projected residual
    as one stack; they form the next beam. The profile peaks, resized to k
    delays, join the last stage's stack and win ties with the final beam;
    they also stand in alone when the cost has fewer distinct peaks than
    paths.
    """
    step = bin_s / _VP_OVERSAMPLE
    grid = np.arange(0.0, hi + 0.5 * step, step)
    offsets = _fringe_offsets(model.f_grid, step / _VP_OVERSAMPLE, 8 * bin_s)
    moves = {j: _fringe_moves(offsets, j) for j in range(1, k + 1)}
    # settling reaches the fringes next to a peak, so the beam spends its
    # width on peaks farther apart than that
    spacing = int(np.ceil(offsets.max() / step)) + 1 if len(offsets) else 1
    cols = model.grid_columns(_VP_OVERSAMPLE, len(grid))
    target = model.target
    start = np.resize(np.sort(peaks), k)
    beam = np.empty((1, 0))
    for j in range(1, k + 1):
        extended: dict[tuple[float, ...], tuple[float, np.ndarray]] = {}
        for chosen in beam:
            r, c = target, cols
            if len(chosen):
                q = np.linalg.qr(model.columns(chosen[None, :])[0])[0]
                r = target - q @ (q.conj().T @ target)
                c = cols - q @ (q.conj().T @ cols)
            norm = np.sum(np.abs(c) ** 2, axis=0)
            gain = np.abs(c.conj().T @ r) ** 2 / np.where(norm > 0, norm, np.inf)
            idx, props = find_peaks(np.concatenate(([0.0], gain, [0.0])), height=0.0,
                                    distance=spacing)
            rest = float(np.sum(np.abs(r) ** 2))
            for i in np.argsort(-props["peak_heights"], kind="stable")[:_VP_BEAM]:
                ext = np.sort(np.append(chosen, grid[idx[i] - 1]))
                extended[tuple(ext)] = (rest - props["peak_heights"][i], ext)
        ranked = sorted(extended.values(), key=lambda item: item[0])[:_VP_BEAM]
        if not ranked:  # fewer distinct peaks than paths
            break
        stack = [ext for _, ext in ranked] + ([start] if j == k else [])
        settled, res = _settle(model, np.array(stack), moves[j], hi)
        if j == k:
            n = len(ranked)
            return settled[n] if res[n] <= res[:n].min() else settled[np.argmin(res[:n])]
        beam = settled[np.argsort(res, kind="stable")]
    return _settle(model, start[None, :], moves[k], hi)[0][0]


def estimate_paths_psols(obs: DecoupledObservation, w: np.ndarray, layout: BandLayout,
                         pso: PsoConfig = PsoConfig(), n_paths: int | None = None,
                         seed: int = 0) -> PathEstimate:
    """Maximum-likelihood fit of the user's multipath parameters.

    The model is pushed through the same delay gate the observation went
    through, so a noiseless single-user observation is exactly representable
    and the fit converges to the true parameters instead of absorbing the
    gate's truncation of off-bin side lobes. At every delay set the gains are
    solved in closed form by least squares on the retained delay bins
    (variable projection). The delays are searched by a deterministic stage
    (see ``_refine``): the delay sets of a greedy beam search over the
    concentrated cost on a fine grid, and the delay-profile peaks, are
    polished by a bounded Levenberg-Marquardt fit on the delays and walked
    across |chi| fringes (one path or a pair of paths moved by whole
    fringes), which catches multiband fits that settled on the wrong fringe.
    Each beam stage is settled as one stack whose rows do not affect each
    other, and each fringe round ranks the moved copies by the residual one
    Gauss-Newton step predicts and quick-polishes only the _VP_RANKED best
    (see ``_settle``).

    The fit is deterministic: ``seed`` has no effect and is kept only so
    existing callers keep working.
    """
    w = np.asarray(w)
    support = np.flatnonzero(w)
    if len(support) == 0:
        raise ValueError("pattern column has no pilots")
    peaks = profile_peak_delays(obs, pso.max_paths, pso.peak_threshold_db)
    if n_paths is not None:
        k = int(n_paths)
        if len(support) < 2 * k or len(obs.gate_bins) < 2 * k:
            raise EstimationError(f"{len(support)} pilots over {len(obs.gate_bins)} "
                                  f"gate bins cannot identify {k} paths")
    else:
        k = max(1, min(len(peaks), pso.max_paths,
                       len(support) // 2, len(obs.gate_bins) // 2))

    model = _GatedModel(obs, support)
    delays = _refine(model, k, peaks, obs.gate_s[1], obs.delay_bin_s)
    gains, res = model.fit(delays[None, :])
    # gains were solved against grid-anchored frequencies; restore the
    # layout's convention so reconstruction with the true steering is exact
    anchor = layout.frequencies_hz[0] if layout.mode == "multi" else 0.0
    phase = np.exp(2j * np.pi * anchor * delays)
    return PathEstimate(delays, gains[0] * phase, float(res[0]), k)


def extrapolate_fullband(estimate: PathEstimate, layout: BandLayout) -> np.ndarray:
    """Rebuild the channel on every subcarrier from the fitted paths."""
    return channel_frequency_response(layout, estimate.delays_s, estimate.gains)


def nmse(estimates: Sequence[Mapping[tuple[int, int], np.ndarray]],
         truths: Sequence[Mapping[tuple[int, int], np.ndarray]]) -> float:
    """Normalized MSE of reconstructed channels, averaged over users and trials."""
    if len(estimates) != len(truths) or len(estimates) == 0:
        raise ValueError("need matching, non-empty per-trial estimate/truth sequences")
    per_trial = []
    for est, tru in zip(estimates, truths):
        if set(est.keys()) != set(tru.keys()):
            raise ValueError("every (group, code) user must appear in each trial")
        ratios = []
        for key in sorted(tru.keys()):
            energy = np.sum(np.abs(tru[key]) ** 2)
            if energy == 0:
                raise ValueError(f"truth channel of user {key} has zero energy")
            ratios.append(np.sum(np.abs(est[key] - tru[key]) ** 2) / energy)
        per_trial.append(np.mean(ratios))
    return float(np.mean(per_trial))


@dataclass(frozen=True)
class SimulationOutcome:
    """Monte-Carlo NMSE of one scheme at one SNR."""

    nmse: float
    trials: int
    failures: int
    per_trial: np.ndarray = field(repr=False)
    fits: int = 0             # completed per-user path fits
    search_failures: int = 0  # fits ending above the true delays' residual


def run_extrapolation_sim(layout: BandLayout, schemes: Mapping[str, PatternSet],
                          snr_db: float, trials: int, n_codes: int = 2,
                          n_paths: int = 2, tau_max_s: float = 400e-9,
                          min_separation_s: float = 0.0,
                          pso: PsoConfig = PsoConfig(), seed: int = 0
                          ) -> dict[str, SimulationOutcome]:
    """Full-chain Monte Carlo: synthesize, decouple, fit, extrapolate, score.

    All schemes see the same channel draws per trial (and scheme-specific
    noise), so cross-scheme comparisons are paired. Per-user estimation
    failures (``EstimationError`` or a singular linear solve) invalidate the
    trial for that scheme and are counted, never silently dropped; any other
    error propagates. A completed fit whose residual ends above the residual
    at the true delays (beyond rounding) is counted as a search failure: the
    maximum-likelihood optimum can never be worse than the truth, so such a
    fit stopped short of it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    noise_std = 10 ** (-snr_db / 20.0) if np.isfinite(snr_db) else 0.0
    gate = (0.0, tau_max_s)
    results: dict[str, list[float]] = {name: [] for name in schemes}
    failures = {name: 0 for name in schemes}
    fits = {name: 0 for name in schemes}
    search_failures = {name: 0 for name in schemes}
    n_groups = {name: p.n_groups for name, p in schemes.items()}
    sequences = orthogonal_sequence_family(layout.n_total, n_codes)

    for t in range(trials):
        chan_seed = np.random.SeedSequence(entropy=seed, spawn_key=(1, t))
        channels = draw_channels(max(n_groups.values()), n_codes, n_paths, tau_max_s,
                                 noise_std, seed=chan_seed.generate_state(1)[0],
                                 min_separation_s=min_separation_s)
        truth = {u: channel_frequency_response(layout, channels.delays_s[u],
                                               channels.gains[u])
                 for u in channels.users()}
        for si, (name, patterns) in enumerate(sorted(schemes.items())):
            users = [(g, z) for g in range(patterns.n_groups) for z in range(n_codes)]
            sub = ChannelParams({u: channels.delays_s[u] for u in users},
                                {u: channels.gains[u] for u in users}, noise_std)
            noise_seed = np.random.SeedSequence(entropy=seed, spawn_key=(2, t, si))
            y = synthesize_received(layout, patterns, sequences, sub,
                                    seed=noise_seed.generate_state(1)[0])
            try:
                estimates = {}
                for (g, z) in users:
                    obs = decouple(layout, y, patterns.column(g), sequences[z],
                                   gate, user=(g, z))
                    # the generator's path count stands in for the paper's
                    # order-selection stage, which out-resolves bin-level peaks
                    est = estimate_paths_psols(obs, patterns.column(g), layout, pso,
                                               n_paths=n_paths)
                    truth_res = path_residual(obs, patterns.column(g),
                                              channels.delays_s[(g, z)])
                    floor = 1e-12 * float(np.sum(np.abs(obs.delay_gated) ** 2))
                    fits[name] += 1
                    search_failures[name] += int(est.residual > truth_res + floor)
                    estimates[(g, z)] = extrapolate_fullband(est, layout)
                results[name].append(nmse([estimates], [{u: truth[u] for u in users}]))
            except (EstimationError, np.linalg.LinAlgError):
                failures[name] += 1
    out = {}
    for name in schemes:
        vals = np.asarray(results[name])
        if len(vals) == 0:
            raise RuntimeError(f"every trial failed for scheme {name!r}")
        out[name] = SimulationOutcome(float(vals.mean()), trials, failures[name], vals,
                                      fits[name], search_failures[name])
    return out


def baseline_schemes(layout: BandLayout, n_groups: int, budgets: Sequence[int],
                     seed: int = 0) -> dict[str, PatternSet]:
    """The two reference allocations every experiment compares against."""
    return {
        "uniform": uniform_patterns(layout, n_groups, budgets),
        "random": random_patterns(layout, n_groups, budgets, seed=seed),
    }
