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
polishes only the best few, each from the linearization its ranking already
computed. A stage ranks the one-path extensions of its kept sets on a fine
delay grid from two products with the grid's columns per observation, never
projecting the grid itself. The full-band channel is rebuilt from the fitted
paths.

Everything the fit needs from the pattern column (support, gate map, fine
grid, fringe moves) is built once per column, and the fit takes a whole
sequence of that column's observations as one stack: every row of every
stage carries the index of its observation and stops on its own tests, so a
stacked fit gives each observation the result it gets alone. The Monte Carlo
fits each (scheme, group) column's (trial, code) observations this way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .waveform import (BandLayout, PatternSet, PilotSequence,
                       channel_frequency_response, check_path_draw, draw_channels,
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
    "SimulationError",
    "check_sim",
    "run_extrapolation_sim",
    "baseline_schemes",
]

_MAX_UNION_GRID = 1 << 22
# dB below the tallest delay-profile peak that a peak may sit: just above the
# first side lobe of a rectangular aperture (-13.3 dB)
_PEAK_THRESHOLD_DB = 13.0


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


@dataclass(frozen=True)
class PsoConfig:
    """Cap on the delay-profile peaks the maximum-likelihood path fit starts from."""

    max_paths: int = 8

    def __post_init__(self):
        if self.max_paths < 1:
            raise ValueError("max_paths must be at least 1")


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


def _peaks(x: np.ndarray, height: float, distance: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Indices and heights of the local maxima of x at least height tall,
    thinned to peaks ceil(distance) or more samples apart.

    A peak is a rise, a run of equal samples and a fall; the run counts once,
    at its middle (left + right) // 2, and a run touching either end of x is
    no peak. The thinning visits the peaks from the tallest down, in reverse
    np.argsort order of the heights, and each peak still kept drops every
    other peak closer than ceil(distance).
    """
    d = np.diff(x)
    turns = np.flatnonzero(d)                 # x[t] != x[t + 1]
    up = d[turns] > 0
    rise = np.flatnonzero(up[:-1] & ~up[1:])  # a rise whose next change is a fall
    idx = (turns[rise] + 1 + turns[rise + 1]) // 2
    heights = x[idx]
    keep = heights >= height
    idx, heights = idx[keep], heights[keep]
    dist = int(np.ceil(distance))
    if len(idx) < 2 or np.diff(idx).min() >= dist:
        return idx, heights
    lo = np.searchsorted(idx, idx - dist, side="right").tolist()
    hi = np.searchsorted(idx, idx + dist, side="left").tolist()
    keep = np.ones(len(idx), dtype=bool)
    for j in np.argsort(heights)[::-1].tolist():
        if keep[j]:
            keep[lo[j]:hi[j]] = False
            keep[j] = True
    return idx[keep], heights[keep]


def profile_peak_delays(obs: DecoupledObservation,
                        max_paths: int = PsoConfig.max_paths) -> np.ndarray:
    """Delays of the gated delay-profile peaks, which the path fit starts from.

    Peaks are local maxima of the power profile |y^D|^2 no more than
    _PEAK_THRESHOLD_DB below the tallest one; the profile is zero-padded so
    gate-edge bins can qualify. Falls back to the single tallest bin when
    nothing qualifies, and keeps the max_paths tallest peaks when more
    qualify. The fit resizes them to its given path count.
    """
    prof = np.abs(obs.delay_gated) ** 2
    if prof.max() == 0:
        return np.array([obs.gate_s[0]])
    padded = np.concatenate(([0.0], prof, [0.0]))
    height = prof.max() * 10 ** (-_PEAK_THRESHOLD_DB / 10.0)
    idx, heights = _peaks(padded, height)
    idx = idx - 1
    if len(idx) == 0:
        idx = np.array([int(np.argmax(prof))])
    elif len(idx) > max_paths:
        order = np.argsort(-heights, kind="stable")[:max_paths]
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


def _observations(obs, w: np.ndarray) -> tuple[list[DecoupledObservation], bool, np.ndarray]:
    """(observations, whether obs was a single one, support) of the pattern column w."""
    single = isinstance(obs, DecoupledObservation)
    stack = [obs] if single else list(obs)
    if not stack:
        raise ValueError("need at least one observation")
    first = stack[0]
    if any(o.gate_s != first.gate_s or o.delay_bin_s != first.delay_bin_s
           or len(o.delay_gated) != len(first.delay_gated) for o in stack):
        raise ValueError("observations of one column must share the gate and transform grid")
    support = np.flatnonzero(np.asarray(w))
    if len(support) == 0:
        raise ValueError("pattern column has no pilots")
    return stack, single, support


class _GatedModel:
    """The multipath model pushed through the delay gate of one pattern column.

    Two parts: the column's, shared by every observation (support, f_grid,
    gate_map and the fine-grid kernel), and ``targets``, one row of gated
    delay bins per observation, (M, G). Every method takes delay sets in rows
    together with the observation index ``obs`` of each row, so one call
    serves rows of many observations. Delays map to gated delay-bin columns;
    the gains of any delay set follow in closed form by least squares, which
    concentrates them out of the fit.
    """

    def __init__(self, observations: Sequence[DecoupledObservation], support: np.ndarray):
        obs = observations[0]
        length = len(obs.delay_gated)
        slots = obs.grid_positions[support]
        grid_spacing = 1.0 / (obs.delay_bin_s * length)
        self.f_grid = slots * grid_spacing  # frequency relative to the first subcarrier
        # gate rows of the unitary subcarrier -> delay-bin transform
        self.gate_map = np.exp(2j * np.pi * np.outer(obs.gate_bins, slots)
                               / length) / np.sqrt(length)
        self.targets = np.array([o.delay_gated[obs.gate_bins] for o in observations])
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

    def _solve(self, a_rows: np.ndarray, obs: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(A, A^H, A^H A, gains g, residual t - A g) of the gated rows a_rows =
        A^T, (P, K, G), each fitted to the target of its observation obs, (P,);
        near-singular A^H A get a small ridge."""
        a, ah = a_rows.transpose(0, 2, 1), a_rows.conj()
        target = self.targets[obs]
        gram = _ridged(ah @ a)
        gains = np.linalg.solve(gram, (ah @ target[..., None]))[..., 0]
        r = target - (a @ gains[..., None])[..., 0]
        return a, ah, gram, gains, r

    def fit(self, delays: np.ndarray, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares gains and residuals for delays of shape (P, K), row p
        fitted to observation obs[p]."""
        *_, gains, r = self._solve(self.columns(delays).transpose(0, 2, 1), obs)
        return gains, np.sum(np.abs(r) ** 2, axis=1)

    def linearize(self, delays: np.ndarray, obs: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residuals, Gauss-Newton matrices and steepest-descent directions.

        For delays of shape (P, K), row p fitted to observation obs[p]: the
        residual r = t - A g with the gains g solved, Re(D^H D) and Re(D^H r),
        where D = P_A^perp dA/dtau g is Kaufman's variable-projection Jacobian
        of the fitted model (Kaufman 1975); the residual gradient it gives is
        exact. Fringe-moved copies of a set share most delays, so each
        distinct delay is gated once.
        """
        distinct, at = np.unique(delays, return_inverse=True)
        steer = self._steer(distinct)
        rows = np.concatenate([steer, (-2j * np.pi * self.f_grid) * steer]) @ self.gate_map.T
        at = at.reshape(delays.shape)
        a, ah, gram, gains, r = self._solve(rows[at], obs)
        # d(A g)/d tau_k, column k
        moved = rows[at + len(distinct)].transpose(0, 2, 1) * gains[:, None, :]
        d = moved - a @ np.linalg.solve(gram, ah @ moved)
        dh = d.conj().transpose(0, 2, 1)
        return (np.sum(np.abs(r) ** 2, axis=1), (dh @ d).real,
                (dh @ r[..., None])[..., 0].real)


def path_residual(obs: DecoupledObservation | Sequence[DecoupledObservation],
                  w: np.ndarray, delays_s) -> float | np.ndarray:
    """Gated least-squares residual of the given path delays, gains solved.

    This is the quantity the path fit minimizes, so evaluated at the true
    delays it tells whether a fit ended short of the maximum-likelihood
    optimum. obs is one observation with delays_s of shape (K,), giving a
    float, or a sequence of M observations of the column w with one row of
    delays_s, (M, K), each, giving an (M,) array.
    """
    observations, single, support = _observations(obs, w)
    delays = np.asarray(delays_s, dtype=float).reshape(len(observations), -1)
    res = _GatedModel(observations, support).fit(delays, np.arange(len(observations)))[1]
    return float(res[0]) if single else res


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
_VP_CHUNK_ROWS = 320    # fringe-moved copies ranked or quick-polished per call (4 sets x 80 moves)


def _lm_steps(jtj: np.ndarray, grad: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Marquardt-damped Gauss-Newton steps of a stack of delay sets.

    The damping lam of each set is scaled by its Gauss-Newton diagonal, so the
    step does not depend on the time unit.
    """
    diag = np.diagonal(jtj, axis1=1, axis2=2)
    damp = lam[:, None] * (diag + 1e-12 * diag.max(axis=1, keepdims=True)) + 1e-300
    eye = np.eye(jtj.shape[1])
    return np.linalg.solve(jtj + damp[:, :, None] * eye, grad[..., None])[..., 0]


def _polish(model: _GatedModel, obs: np.ndarray, starts: np.ndarray, hi: float,
            steps: int = _VP_LM_STEPS,
            start: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Bounded Levenberg-Marquardt on the delays of a stack of delay sets.

    Each set (row of starts, fitted to observation obs[row]) keeps its own
    Marquardt damping (``_lm_steps``), moves only on steps that lower its
    residual, and stops once every component of its own proposed step is
    below _VP_XTOL; so a row's result does not depend on the other rows of
    the stack. ``start`` is the ``linearize`` output (residuals, Gauss-Newton
    matrices, gradients) of starts when the caller already has it, as the
    fringe ranking has for the copies it picks; starts must then lie inside
    [0, hi], and the polish begins from it instead of linearizing again.
    Returns the polished, ascending delay sets and their residuals.
    """
    x = np.clip(starts, 0.0, hi)
    res, jtj, grad = model.linearize(x, obs) if start is None else start
    lam = np.full(len(x), _VP_DAMPING)
    live = np.arange(len(x))
    for _ in range(steps):
        step = _lm_steps(jtj[live], grad[live], lam[live])
        moving = np.any(np.abs(step) >= _VP_XTOL, axis=1)
        live, step = live[moving], step[moving]
        if not len(live):
            break
        trial = np.clip(x[live] + step, 0.0, hi)
        t_res, t_jtj, t_grad = model.linearize(trial, obs[live])
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
    idx, heights = _peaks(np.concatenate(([1.0], chi)), _VP_FRINGE_LEVEL)
    order = np.argsort(-heights, kind="stable")[:_VP_FRINGES]
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


def _predicted(model: _GatedModel, obs: np.ndarray, delays: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Residuals that one Gauss-Newton step from each row of delays predicts,
    followed by the linearization they were predicted from (``linearize``'s
    residuals, Gauss-Newton matrices and gradients), which a polish of the
    same rows starts from."""
    res, jtj, grad = model.linearize(delays, obs)
    step = _lm_steps(jtj, grad, np.full(len(res), _VP_DAMPING))
    return res - np.sum(grad * step, axis=1), res, jtj, grad


def _settle(model: _GatedModel, obs: np.ndarray, starts: np.ndarray, moves: np.ndarray,
            hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Polish a (B, k) stack of delay sets, then walk each across |chi| fringes.

    Row b is fitted to observation obs[b]. After a Levenberg-Marquardt
    polish, each round moves every set by each row of ``moves`` (fringe
    shifts of one path or a pair of paths) and ranks the moved copies by the
    residual their first Gauss-Newton step predicts: one linearization, no
    iterations. The _VP_RANKED best get a few iterations, starting from the
    linearization the ranking computed for them (``_predicted``) instead of
    linearizing them again, and the best of those a full polish. Both the
    ranking and the quick polish take the copies in chunks of at most
    _VP_CHUNK_ROWS rows, which bounds the transient memory of a large
    stack. A set keeps walking while that lowers its residual: a path, or
    two coupled paths, can settle a fringe off together. Rows walk
    independently, and rows of one observation that agree to within
    _VP_SAME (a beam can hold one set several times, polished to within a
    few _VP_XTOL of itself) are settled once; returns the settled delay sets
    and their residuals.

    The concentrated cost at the moved copies alone ranks poorly: a fringe
    move lands a fraction of a fringe off the minimum it leads to, where the
    multiband cost is still high, so the copy that splits two merged paths
    can rank far down the list.
    """
    keys = np.column_stack([obs, np.round(starts / _VP_SAME)])
    _, first, same = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    same, owner = same.ravel(), obs[first]
    best, best_res = _polish(model, owner, starts[first], hi)
    live = np.arange(len(best))
    c = _VP_CHUNK_ROWS
    for _ in range(_VP_FRINGE_ROUNDS if len(moves) else 0):
        n, k = len(live), best.shape[1]
        copies = np.clip(best[live][:, None, :] + moves[None], 0.0, hi).reshape(-1, k)
        owners = np.repeat(owner[live], len(moves))
        predicted, *lin = map(np.concatenate, zip(*(
            _predicted(model, owners[i:i + c], copies[i:i + c])
            for i in range(0, len(copies), c))))
        top = np.argsort(predicted.reshape(n, -1), axis=1, kind="stable")[:, :_VP_RANKED]
        flat = (top + len(moves) * np.arange(n)[:, None]).ravel()
        picked, owners, lin = copies[flat], owners[flat], [part[flat] for part in lin]
        quick = [_polish(model, owners[i:i + c], picked[i:i + c], hi, _VP_QUICK_STEPS,
                         tuple(part[i:i + c] for part in lin))
                 for i in range(0, len(picked), c)]
        moved, res = (np.concatenate(part) for part in zip(*quick))
        pick = np.argmin(res.reshape(n, -1), axis=1)
        moved, res = _polish(model, owner[live],
                             moved.reshape(n, -1, k)[np.arange(n), pick], hi)
        better = res < best_res[live]
        live = live[better]
        best[live], best_res[live] = moved[better], res[better]
        if not len(live):
            break
    return best[same], best_res[same]


def _extensions(model: _GatedModel, target: np.ndarray, beam: np.ndarray, grid: np.ndarray,
                cols: np.ndarray, norms: np.ndarray, spacing: int) -> list[np.ndarray]:
    """The _VP_BEAM best one-path extensions of an observation's beam.

    Each kept set's span (orthonormal basis q) is projected off the target,
    leaving r; a column c of the fine grid's columns cols, whose squared
    norms are norms, then lowers the residual by |c'^H r|^2 / ||c'||^2,
    where c' = c - q q^H c. Since r is already orthogonal to q, c'^H r =
    c^H r and ||c'||^2 = ||c||^2 - ||q^H c||^2, so the kept sets take their
    numerators from one product R^H cols and their denominators from one
    product Q^H cols (R and Q stacking every set's r and q), and the
    projected grid is never built. The peaks, spacing or more grid points
    apart, of that one-path concentrated cost extend the set. Extensions
    come best projected residual first; none come (the beam ends) when the
    cost has fewer distinct peaks than paths.
    """
    sets, j = beam.shape
    if not sets:
        return []
    r, norm = np.repeat(target[None], sets, axis=0), norms
    if j:
        q = [np.linalg.qr(model.columns(chosen[None, :])[0])[0] for chosen in beam]
        r = np.array([target - b @ (b.conj().T @ target) for b in q])
        proj = np.abs(np.concatenate(q, axis=1).conj().T @ cols) ** 2
        norm = norms - np.sum(proj.reshape(sets, j, -1), axis=1)
    gains = np.abs(r.conj() @ cols) ** 2 / np.where(norm > 0, norm, np.inf)
    extended: dict[tuple[float, ...], tuple[float, np.ndarray]] = {}
    for chosen, left, gain in zip(beam, r, gains):
        idx, heights = _peaks(np.concatenate(([0.0], gain, [0.0])), 0.0, spacing)
        rest = float(np.sum(np.abs(left) ** 2))
        for i in np.argsort(-heights, kind="stable")[:_VP_BEAM]:
            ext = np.sort(np.append(chosen, grid[idx[i] - 1]))
            extended[tuple(ext)] = (rest - heights[i], ext)
    return [ext for _, ext in sorted(extended.values(), key=lambda item: item[0])[:_VP_BEAM]]


def _refine(model: _GatedModel, k: int, peaks: Sequence[np.ndarray], hi: float,
            bin_s: float) -> np.ndarray:
    """Deterministic variable-projection search; returns the winning delays,
    (M, k), of the model's M observations, whose profile peaks are peaks.

    A greedy beam search builds k-path delay sets one path at a time, each
    observation keeping its own beam. Each stage extends every kept set by
    one path on a grid _VP_OVERSAMPLE times finer than the delay bins and
    keeps the _VP_BEAM extensions with the lowest projected residual
    (``_extensions``). Every observation's extensions are settled
    (``_settle``) in one stack, and each observation's settled rows form its
    next beam. The grid, its columns and the fringe moves depend on the
    column alone and are built once. An observation's profile peaks, resized
    to k delays, join the last stage's stack and win ties with its final
    beam; they also stand in alone when its cost has fewer distinct peaks
    than paths.
    """
    step = bin_s / _VP_OVERSAMPLE
    grid = np.arange(0.0, hi + 0.5 * step, step)
    offsets = _fringe_offsets(model.f_grid, step / _VP_OVERSAMPLE, 8 * bin_s)
    moves = {j: _fringe_moves(offsets, j) for j in range(1, k + 1)}
    # settling reaches the fringes next to a peak, so the beam spends its
    # width on peaks farther apart than that
    spacing = int(np.ceil(offsets.max() / step)) + 1 if len(offsets) else 1
    cols = model.grid_columns(_VP_OVERSAMPLE, len(grid))
    norms = np.sum(np.abs(cols) ** 2, axis=0)
    starts = np.array([np.resize(np.sort(p), k) for p in peaks])
    beams = [np.empty((1, 0))] * len(starts)
    for j in range(1, k + 1):
        ranked = [_extensions(model, target, beam, grid, cols, norms, spacing)
                  for target, beam in zip(model.targets, beams)]
        counts = np.array([len(r) for r in ranked])
        stack = [ext for r in ranked for ext in r]
        obs = np.repeat(np.arange(len(starts)), counts)
        if j == k:
            stack += list(starts)
            obs = np.concatenate([obs, np.arange(len(starts))])
        elif not stack:  # no observation has a beam left
            beams = [np.empty((0, j))] * len(starts)
            continue
        settled, res = _settle(model, obs, np.array(stack), moves[j], hi)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        if j < k:
            beams = [settled[a:b][np.argsort(res[a:b], kind="stable")]
                     for a, b in zip(bounds[:-1], bounds[1:])]
    out = settled[bounds[-1]:].copy()
    for m, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if b > a and not res[bounds[-1] + m] <= res[a:b].min():
            out[m] = settled[a + np.argmin(res[a:b])]
    return out


def estimate_paths_psols(obs: DecoupledObservation | Sequence[DecoupledObservation],
                         w: np.ndarray, layout: BandLayout, pso: PsoConfig = PsoConfig(),
                         *, n_paths: int, seed: int = 0
                         ) -> PathEstimate | list[PathEstimate]:
    """Maximum-likelihood fit of the user's n_paths multipath parameters.

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

    obs is one observation, giving one estimate, or a sequence of
    observations of the pattern column w (same gate), giving a list of
    estimates in the same order. A sequence is fitted as one stack, and each
    observation gets the estimate it gets alone. The model order n_paths is
    the caller's and must be at least 1; an ``EstimationError`` (fewer than
    two pilots and two gate bins per path) depends on the column alone.

    The fit is deterministic: ``seed`` has no effect and is kept only so
    existing callers keep working.
    """
    observations, single, support = _observations(obs, w)
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    bins = len(observations[0].gate_bins)
    if n_paths > min(len(support), bins) // 2:  # each path takes two pilots and two gate bins
        raise EstimationError(f"{len(support)} pilots over {bins} "
                              f"gate bins cannot identify {n_paths} path(s)")

    peaks = [profile_peak_delays(o, pso.max_paths) for o in observations]
    model = _GatedModel(observations, support)
    rows = np.arange(len(observations))
    delays = _refine(model, n_paths, peaks, observations[0].gate_s[1],
                     observations[0].delay_bin_s)
    gains, res = model.fit(delays, rows)
    # gains were solved against grid-anchored frequencies; restore the
    # channel model's so reconstruction with the true steering is exact
    phase = np.exp(2j * np.pi * layout.channel_frequencies_hz[0] * delays)
    out = [PathEstimate(delays[m], gains[m] * phase[m], float(res[m])) for m in rows]
    return out[0] if single else out


def extrapolate_fullband(estimate: PathEstimate, layout: BandLayout) -> np.ndarray:
    """Rebuild the channel on every subcarrier from the fitted paths."""
    return channel_frequency_response(layout, estimate.delays_s, estimate.gains)


def nmse(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Normalized MSE of reconstructed channels.

    estimates and truths are equal-shaped (..., N) stacks with one channel
    per row, say (groups, codes, N) for a trial; the score is the mean over
    rows of ||estimate - truth||^2 / ||truth||^2.
    """
    estimates, truths = np.asarray(estimates), np.asarray(truths)
    if estimates.shape != truths.shape or truths.size == 0:
        raise ValueError("need equal-shaped, non-empty estimate/truth stacks")
    energy = np.sum(np.abs(truths) ** 2, axis=-1)
    if np.any(energy == 0):
        raise ValueError("a truth channel has zero energy")
    return float(np.mean(np.sum(np.abs(estimates - truths) ** 2, axis=-1) / energy))


class SimulationError(RuntimeError):
    """No trial of a scheme completed, so the scheme has no NMSE."""


@dataclass(frozen=True)
class SimulationOutcome:
    """Monte-Carlo NMSE of one scheme at one SNR."""

    nmse: float
    trials: int
    failures: int
    per_trial: np.ndarray = field(repr=False)
    fits: int = 0             # completed per-user path fits, failed trials included
    search_failures: int = 0  # of those fits, the ones ending above the true delays' residual


_SIM_STACK = 64  # observations of one pattern column fitted as one stack


def check_sim(layout: BandLayout, snr_db: float, trials: int, n_paths: int,
              tau_max_s: float, min_separation_s: float) -> None:
    """Raise ValueError unless ``run_extrapolation_sim`` can run these settings:
    a trial, an SNR that is a number or +inf, the gate (0, tau_max_s) by
    ``check_gate`` and the channel draw by ``check_path_draw``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not snr_db > -np.inf:
        raise ValueError(f"snr_db must be a number or +inf (noiseless), not {snr_db}")
    check_gate(layout, (0.0, tau_max_s))
    check_path_draw(n_paths, tau_max_s, min_separation_s)


def run_extrapolation_sim(layout: BandLayout, schemes: Mapping[str, PatternSet],
                          snr_db: float, trials: int, n_codes: int = 2,
                          n_paths: int = 2, tau_max_s: float = 400e-9,
                          min_separation_s: float = 0.0,
                          pso: PsoConfig = PsoConfig(), seed: int = 0
                          ) -> dict[str, SimulationOutcome]:
    """Full-chain Monte Carlo: synthesize, decouple, fit, extrapolate, score.

    Three phases. (1) Each trial draws one (groups, codes, paths) channel set
    and computes its (groups, codes, N) responses once; a scheme of G groups
    synthesizes the first G rows of that stack under its own noise, so
    schemes see the same channels and cross-scheme comparisons are paired.
    (2) Each (scheme, group) pattern column decouples its (trial, code)
    observations and fits them as stacks of at most _SIM_STACK observations
    (see ``estimate_paths_psols``); within a fit, a fringe round ranks and
    quick-polishes at most _VP_CHUNK_ROWS moved copies per call, which
    bounds the transient memory. (3) Each trial is scored, in trial order.

    Per-user estimation failures invalidate the trial for that scheme and
    are counted, never silently dropped; any other error propagates. An
    ``EstimationError`` depends on the column alone, so it fails every trial
    of the scheme. A singular linear solve (``LinAlgError``) in a stacked fit
    refits that stack one observation at a time, so it fails only the trials
    whose observations raise it. ``fits`` counts every completed fit, in
    failed trials too. A completed fit whose residual ends above the residual
    at the true delays (beyond rounding) is counted as a search failure: the
    maximum-likelihood optimum can never be worse than the truth, so such a
    fit stopped short of it. A scheme with no completed trial raises
    ``SimulationError``. snr_db = +inf runs noiseless; ``check_sim`` checks
    the settings first.
    """
    check_sim(layout, snr_db, trials, n_paths, tau_max_s, min_separation_s)
    noise_std = 10 ** (-snr_db / 20.0)  # 0 at +inf
    gate = (0.0, tau_max_s)
    n_groups = max(p.n_groups for p in schemes.values())
    sequences = orthogonal_sequence_family(layout.n_total, n_codes)

    delays, truths, received = [], [], []
    for t in range(trials):
        chan_seed = np.random.SeedSequence(entropy=seed, spawn_key=(1, t))
        d, a = draw_channels(n_groups, n_codes, n_paths, tau_max_s,
                             seed=chan_seed.generate_state(1)[0],
                             min_separation_s=min_separation_s)
        truth = np.array([[channel_frequency_response(layout, d_u, a_u)
                           for d_u, a_u in zip(d_g, a_g)] for d_g, a_g in zip(d, a)])
        delays.append(d)
        truths.append(truth)
        received.append({name: synthesize_received(
            layout, schemes[name], sequences, truth[:schemes[name].n_groups], noise_std,
            seed=np.random.SeedSequence(entropy=seed, spawn_key=(2, t, si)).generate_state(1)[0])
            for si, name in enumerate(sorted(schemes))})

    trial_codes = list(itertools.product(range(trials), range(n_codes)))
    outcomes = {}
    for name, patterns in schemes.items():
        shape = (trials, patterns.n_groups, n_codes)
        done, missed = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        estimates = np.zeros(shape + (layout.n_total,), dtype=complex)
        for g in range(patterns.n_groups):
            w = patterns.column(g)
            try:
                for lo in range(0, len(trial_codes), _SIM_STACK):
                    stack = trial_codes[lo:lo + _SIM_STACK]
                    obs = [decouple(layout, received[t][name], w, sequences[z], gate, user=(g, z))
                           for t, z in stack]
                    true_delays = np.array([delays[t][g, z] for t, z in stack])
                    for (t, z), fit in zip(stack, _fit_stack(layout, obs, w, true_delays,
                                                             pso, n_paths)):
                        if fit is not None:
                            done[t, g, z], missed[t, g, z] = True, fit[1]
                            estimates[t, g, z] = extrapolate_fullband(fit[0], layout)
            except EstimationError:
                break  # no trial of this scheme gets past group g

        complete = done.reshape(trials, -1).all(axis=1)
        vals = [nmse(estimates[t], truths[t][:patterns.n_groups])
                for t in np.flatnonzero(complete)]
        if not vals:
            raise SimulationError(f"every trial failed for scheme {name!r}")
        outcomes[name] = SimulationOutcome(float(np.mean(vals)), trials, trials - len(vals),
                                           np.asarray(vals), int(done.sum()), int(missed.sum()))
    return outcomes


def _fit_stack(layout: BandLayout, observations: list[DecoupledObservation], w: np.ndarray,
               true_delays: np.ndarray, pso: PsoConfig, n_paths: int
               ) -> list[tuple[PathEstimate, bool] | None]:
    """(estimate, search failure) of each observation of one column, or None
    where a linear solve was singular; a singular stack is refit one
    observation at a time, so only the observations that raise get None."""
    try:
        # the generator's path count stands in for the paper's
        # order-selection stage, which out-resolves bin-level peaks
        ests = estimate_paths_psols(observations, w, layout, pso, n_paths=n_paths)
        truth_res = path_residual(observations, w, true_delays)
    except np.linalg.LinAlgError:
        if len(observations) == 1:
            return [None]
        return [fit for o, d in zip(observations, true_delays)
                for fit in _fit_stack(layout, [o], w, d[None], pso, n_paths)]
    floors = [1e-12 * float(np.sum(np.abs(o.delay_gated) ** 2)) for o in observations]
    return [(est, bool(est.residual > r + floor))
            for est, r, floor in zip(ests, truth_res, floors)]


def baseline_schemes(layout: BandLayout, n_groups: int, budgets: Sequence[int],
                     seed: int = 0) -> dict[str, PatternSet]:
    """The two reference allocations every experiment compares against."""
    return {
        "uniform": uniform_patterns(layout, n_groups, budgets),
        "random": random_patterns(layout, n_groups, budgets, seed=seed),
    }
