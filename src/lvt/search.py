"""Max-min Monte-Carlo search for the threshold visibility.

Inner loop: at fixed settings, find the largest visibility an M-state
local model certifies.  Outer loop: move the settings around to
minimize that maximum.  Sweeping the settings count N and
extrapolating N -> infinity estimates the threshold below which every
ensemble stays locally representable.

The inner search maximizes over all M-state models with zero
marginals and tables bounded by 1, in two stages.  A hill climb over
the frame parameters (q, t, rho) of the SVD construction comes first;
its tables have columns in the rank-3 span of the Gram matrix.  An
alternating-LP finish (lvt.seesaw) then polishes the climb's model
over general tables and weights, which lifts the rank-3 ceiling for
N > 3 and closes the climb's slow last stretch at any N.

The climb state is a flat vector of 7M reals: the 6 raw frame vectors
plus raw weights.  Each evaluation re-projects the constraints (floor
simplex for rho, sqrt(rho)-orthogonality, biorthogonality via an
explicit 3x3 inverse) and reads off the certified visibility.  The
relative scale of q versus t is balanced in closed form: scaling q by s
multiplies the A table by s and the B table by 1/s, so the best
achievable value at a given state is 1/(max|A'| max|B'|), capped at 1.
Each restart draws its moves in bulk, 256 at a time, into a queue.
Most moves are rejected, so each restart scores a block of its next
queued moves against its current state, and one stacked evaluation
scores the blocks of all live restarts; the restart takes the first
improving move, exactly as a one-move-per-step climb would.  Once a
restart's best reaches V = 1, it and every higher-index restart stop
climbing, since none of them can then win; such calls count fewer
steps.

At M = 4 the t half of the state is inert.  After projection, q and t
both lie in sqrt(rho)'s 3-dimensional complement, so biorthogonalizing
makes t the dual basis of q there, t = (q q^T)^-1 q, whatever the t half
holds.  A move in the t half (3M of the 7M coordinates) then changes
the tables only by round-off, so the climb counts it as a rejected step
without scoring it.  It still counts in the step budget and in
iterations_used, as any rejection does.

The exact objective is a min over table entries of equal magnitude at
the optimum, so its ridges are too sharp for single-component moves:
climbs that accept only exact improvements stall well below values
that are provably reachable.  The climb therefore scores states with
the max softened to a log-sum-exp of sharpness beta, doubling beta on
a fixed ladder over the run so early phases can trade tied entries
against each other while late phases approach the exact objective.
Acceptance stays monotone in the score, and the run tracks the best
state under the exact visibility.  The finish only ever replaces that
state's model with a better certified one, so every reported value is
certified by a concrete model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .construct import (
    DEFAULT_RHO_MIN,
    DiscreteLhvModel,
    SettingsEnsemble,
    biorthogonalize,
    floor_normalized_weights,
    gram_svd,
    project_out,
)
from .core import Direction
from .errors import ConstructionFailureError, InvalidInputError, LvtError
from .estimate import VisibilityEstimate
from .seesaw import seesaw

logger = logging.getLogger(__name__)

_SEED_MASK = (1 << 64) - 1

# Stream tags keeping the derived RNGs of the loops disjoint.
_TAG_RESTART = 1
_TAG_OUTER = 2
_TAG_INNER_SEED = 3
_TAG_BOOTSTRAP = 4
_TAG_FINISH = 5

# Adaptive step-factor limits; the run stops early once the factor
# shrinks through the floor (roughly 10*patience straight rejections).
_FACTOR_FLOOR = 1e-3
_FACTOR_CAP = 8.0

# Log-sum-exp sharpness ladder for the acceptance score: beta starts at
# the base and doubles at each equal fraction of the iteration budget;
# the final fraction scores with the exact (unsoftened) visibility.
_SHARPNESS_BASE = 50.0
_SHARPNESS_DOUBLINGS = 4

# A block of moves costs a fixed overhead (about 50 us of Python and
# NumPy dispatch per kernel call) plus a term per table entry scored,
# and the moves a block scores after its first acceptance are scored
# again in the next block.  So a block should end about where the first
# acceptance is expected: about one move in ten is accepted at M = 4-5,
# but one in four or more at M = 34, so blocks shrink as M grows (at
# most _BLOCK_STATE_MOVES moves * M).  Past _BLOCK_ENTRIES table entries
# (moves * N * M) per restart, the per-entry term outweighs the overhead
# a longer block saves.  Measured on a 2-core machine, this picks the
# fastest power of two to within noise from N = 2 to 1000 and M = 4 to 34.
_BLOCK_MOVES = 16
_BLOCK_STATE_MOVES = 160
_BLOCK_ENTRIES = 16384

# Each restart draws its moves this many at a time: one bulk call per
# stream costs about as much as two single draws.
_DRAWS = 256

# Soft-max exponents are clamped here: NumPy's exp runs about 20 times
# slower on results that underflow and about 150 times slower on
# subnormal results, while exp(-700) ~ 1e-304 adds nothing to a sum
# that the peak entry's exp(0) = 1 already holds.
_EXPONENT_FLOOR = -700.0

_BOOTSTRAP_RESAMPLES = 200
_SETTINGS_JITTER = 0.25

_ALPHA_GRID = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and knobs for the max-min search."""

    n_settings: int
    m_states: int = 4
    inner_iters: int = 4000
    outer_iters: int = 24
    restarts: int = 2
    step_scale: float = 0.25
    patience: int = 60
    seed: int = 0
    rho_min: float = DEFAULT_RHO_MIN

    def __post_init__(self) -> None:
        for name in ("n_settings", "m_states", "inner_iters", "outer_iters",
                     "restarts", "patience", "seed"):
            raw = getattr(self, name)
            if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
                raise InvalidInputError(f"{name} must be an integer, got {raw!r}")
            object.__setattr__(self, name, int(raw))
        if self.n_settings < 1:
            raise InvalidInputError(f"n_settings must be >= 1, got {self.n_settings}")
        if self.m_states < 4:
            raise InvalidInputError(f"m_states must be >= 4, got {self.m_states}")
        for name in ("inner_iters", "outer_iters", "restarts", "patience"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        step = float(self.step_scale)
        if not math.isfinite(step) or step <= 0.0:
            raise InvalidInputError(f"step_scale must be > 0, got {self.step_scale!r}")
        object.__setattr__(self, "step_scale", step)
        rho_min = float(self.rho_min)
        if not (0.0 < rho_min <= 1.0 / self.m_states):
            raise InvalidInputError(
                f"rho_min must lie in (0, 1/m_states], got {self.rho_min!r}"
            )
        object.__setattr__(self, "rho_min", rho_min)


def _derive_seed(entropy: Sequence[int]) -> int:
    """Stable 64-bit seed from a list of nonnegative integers."""
    seq = np.random.SeedSequence(entropy=[int(e) & _SEED_MASK for e in entropy])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _derive_rng(entropy: Sequence[int]) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=[int(e) & _SEED_MASK for e in entropy])
    return np.random.default_rng(seq)


def _state_tables(
    x: np.ndarray, w_ab: np.ndarray, m: int, rho_min: float
) -> tuple[np.ndarray, np.ndarray]:
    """Raw tables of a stack of search states.

    x holds one state per row, shape (R, 7M); w_ab stacks the two
    sides' scaled singular vectors, shape (2, N, 3).  Returns the
    (R, 2, N, M) stack of (A', B') pairs plus a mask of the rows whose
    3x3 biorthogonalizing system was solvable; unsolvable rows carry
    zero tables.
    """
    count = x.shape[0]
    # floor_normalized_weights, row by row.
    w = np.maximum(x[:, 6 * m :], 0.0)
    total = w.sum(axis=1)
    flat = ~((total > 0.0) & (total < np.inf))
    if flat.any():
        w[flat] = 1.0
        total[flat] = float(m)
    srho = np.sqrt(rho_min + (1.0 - m * rho_min) * w / total[:, None])[:, None, :]
    frame_raw = x[:, : 6 * m].reshape(count, 6, m)
    frame = frame_raw - (frame_raw @ srho.transpose(0, 2, 1)) * srho
    q = frame[:, :3]
    cross_t = frame[:, 3:] @ q.transpose(0, 2, 1)
    solved = np.ones(count, dtype=bool)
    # An explicit 3x3 inverse, then a product, is cheaper than a batched
    # solve at the climb's batch sizes (22 against 64 us for 12 systems
    # at M = 34, 104 against 129 us for 96 at M = 5) and agrees with it
    # to round-off.
    try:
        frame[:, 3:] = np.linalg.inv(cross_t) @ frame[:, 3:]
    except np.linalg.LinAlgError:
        for r in range(count):
            try:
                frame[r, 3:] = np.linalg.inv(cross_t[r]) @ frame[r, 3:]
            except np.linalg.LinAlgError:
                frame[r] = 0.0
                solved[r] = False
    frame /= srho
    return w_ab @ frame.reshape(count, 2, 3, m), solved


def _scores(tables: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance scores and exact visibilities of a stack of table pairs.

    The exact scale-balanced visibility is 1/(max|A'| max|B'|), capped
    at 1.  The score softens each max to a log-sum-exp of sharpness
    beta[r], so tied entries contribute; an infinite beta scores with
    the exact visibility (the ladder's final rung).  Pairs with a
    non-finite entry score -inf, so they are never accepted.  The
    tables are overwritten.
    """
    count = tables.shape[0]
    magnitudes = np.abs(tables, out=tables).reshape(count, 2, -1)
    peaks = magnitudes.max(axis=2)
    visibility = 1.0 / np.maximum(peaks[:, 0] * peaks[:, 1], 1.0)
    score = visibility.copy()
    soft = np.isfinite(beta)
    if soft.any():
        sharp = np.where(soft, beta, 1.0)[:, None]
        magnitudes -= peaks[:, :, None]
        magnitudes *= sharp[:, :, None]
        np.maximum(magnitudes, _EXPONENT_FLOOR, out=magnitudes)
        spread = np.exp(magnitudes, out=magnitudes).sum(axis=2)
        soft_max = np.log(spread) / sharp + peaks
        score[soft] = (1.0 / (soft_max[:, 0] * soft_max[:, 1]))[soft]
    finite = np.isfinite(peaks).all(axis=1)
    if not finite.all():
        score[~finite] = -np.inf
        visibility[~finite] = 0.0
    return score, visibility


def state_to_model(
    x: np.ndarray, settings: SettingsEnsemble, config: SearchConfig
) -> DiscreteLhvModel:
    """Materialize the discrete model a search state encodes.

    Re-applies the exact projections and table formulas, then balances
    the q/t scale: with both tables normalized by their own largest
    entry the certified visibility is 1/(max|A'| max|B'|), capped at 1.
    Frame rows paired with zero singular values never reach the tables,
    so the model is built from the tables directly and certified by
    validate_model rather than by frame-level checks that would bind
    those unconstrained rows.
    """
    m = config.m_states
    x = np.asarray(x, dtype=float)
    if x.shape != (7 * m,):
        raise InvalidInputError(f"state must have length {7 * m}, got shape {x.shape}")
    rho = floor_normalized_weights(x[6 * m :], config.rho_min)
    srho = np.sqrt(rho)
    q = project_out(x[: 3 * m].reshape(3, m), srho)
    t = biorthogonalize(q, project_out(x[3 * m : 6 * m].reshape(3, m), srho))
    # At M = 4 the t half of a climb state leaves the objective unchanged
    # (t is fixed by q), so it drifts until biorthogonalize amplifies
    # round-off along sqrt(rho); project it off again to keep the
    # marginals at zero.
    t = project_out(t, srho)
    svd = gram_svd(settings)
    sqrt_p = np.sqrt(svd.p)
    a_raw = (svd.u * sqrt_p) @ (q / srho)
    b_raw = (svd.v * sqrt_p) @ (t / srho)
    max_a = float(np.max(np.abs(a_raw)))
    max_b = float(np.max(np.abs(b_raw)))
    prod = max_a * max_b
    n = settings.n_settings
    if prod == 0.0:
        return DiscreteLhvModel(
            rho=rho, a_table=np.zeros((n, m)), b_table=np.zeros((n, m)), visibility=1.0
        )
    if prod <= 1.0:
        scale = math.sqrt(max_b / max_a)
        return DiscreteLhvModel(
            rho=rho, a_table=scale * a_raw, b_table=b_raw / scale, visibility=1.0
        )
    return DiscreteLhvModel(
        rho=rho, a_table=a_raw / max_a, b_table=b_raw / max_b, visibility=1.0 / prod
    )


def _block_moves(n: int, m: int) -> int:
    """Moves a restart scores per block: a power of two, at most _BLOCK_MOVES."""
    moves = _BLOCK_MOVES
    while moves > 1 and (moves * m > _BLOCK_STATE_MOVES or moves * n * m > _BLOCK_ENTRIES):
        moves //= 2
    return moves


def _climb(
    settings: SettingsEnsemble,
    config: SearchConfig,
    on_accept: Optional[Callable[[np.ndarray, float], None]] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """All restarts of one call, each scoring a block of moves at a time.

    Each restart draws its moves from its own stream, _DRAWS at a time
    (the coordinates, then the step lengths), into a queue that a
    stepwise climb (one move per step) would read in the same order.  A
    block scores a restart's next moves against its current state,
    stacked with every other live restart's block in one kernel call,
    and takes the first improving move; the moves before it count as
    rejections, and the moves after it stay queued.  A block ends where
    the stepwise climb would change how it scores or moves: at a
    sharpness rung, at the rejection that halves the step factor, and at
    the iteration budget.

    Once restart r's best reaches V = 1, restart r and every restart
    with a higher index stop climbing: no value beats 1, and the winner's
    tie rule picks the lowest index, so the winner is unchanged.  They
    stop after the step at which r reached 1, as in a stepwise climb
    whose restarts advance in lockstep; for that, no restart runs ahead
    of a lower-index restart that is still climbing.  So every restart
    takes exactly the steps of the stepwise climb.

    At M = 4 a move in the t half (coordinates 3M to 6M) is inert, so it
    is left out of the kernel call and taken as a rejection, as exact
    arithmetic would take it: it counts as a step and toward the
    patience, ends the run of consecutive acceptances, and leaves the
    state, the score and the best as they are.  Returns (best value per
    restart, best state per restart, steps taken).
    """
    svd = gram_svd(settings)
    sqrt_p = np.sqrt(svd.p)
    w_ab = np.stack([svd.u * sqrt_p, svd.v * sqrt_p])
    m = config.m_states
    dim = 7 * m
    count = config.restarts
    rngs = [_derive_rng([config.seed, _TAG_RESTART, r]) for r in range(count)]

    evals = 0
    x = np.empty((count, dim))
    exact = np.array([math.inf])
    for r, rng in enumerate(rngs):
        for _ in range(100):
            x[r] = np.concatenate([rng.standard_normal(6 * m), rng.uniform(0.0, 1.0, m)])
            evals += 1
            tables, solved = _state_tables(x[r : r + 1], w_ab, m, config.rho_min)
            if solved[0] and _scores(tables, exact)[0][0] > -np.inf:
                break
        else:
            raise ConstructionFailureError("no feasible starting frame found in 100 draws")

    ladder = [_SHARPNESS_BASE * 2.0**k for k in range(_SHARPNESS_DOUBLINGS)]
    ladder.append(math.inf)  # exact objective on the final rung
    phase_len = max(1, config.inner_iters // len(ladder))
    beta = np.full(count, ladder[0])
    score, best_v = _scores(_state_tables(x, w_ab, m, config.rho_min)[0], beta)
    best_x = x.copy()
    if on_accept is not None:
        for r in range(count):
            on_accept(x[r].copy(), float(best_v[r]))

    block = _block_moves(settings.n_settings, m)
    factor = np.ones(count)
    rejections = [0] * count
    streak = [0] * count
    steps = [0] * count
    # Steps each restart may take: the budget, or the step at which it
    # or a lower-index restart reached V = 1.
    limit = [config.inner_iters] * count
    for r in range(count):
        if best_v[r] >= 1.0:
            limit[r:] = [0] * (count - r)
            break
    # Move queues: row r holds restart r's drawn, not yet taken moves in
    # columns cursor[r] to filled[r].
    queue_index = np.empty((count, _DRAWS + block), dtype=np.intp)
    queue_step = np.empty((count, _DRAWS + block))
    cursor = np.zeros(count, dtype=np.intp)
    filled = np.zeros(count, dtype=np.intp)
    while True:
        climbing = [
            r for r in range(count) if factor[r] >= _FACTOR_FLOOR and steps[r] < limit[r]
        ]
        if not climbing:
            break
        sizes = []
        # A restart's block stops at the steps a lower-index restart can
        # reach in this block; moves past them could not be taken.
        ahead = math.inf
        for r in climbing:
            phase = steps[r] // phase_len
            if steps[r] > 0 and steps[r] % phase_len == 0 and phase < len(ladder):
                beta[r] = ladder[phase]
                tables, _ = _state_tables(x[r : r + 1], w_ab, m, config.rho_min)
                score[r] = _scores(tables, beta[r : r + 1])[0][0]
            if phase + 1 < len(ladder):
                rung_end = (phase + 1) * phase_len
            else:
                rung_end = config.inner_iters
            size = max(0, min(
                block, config.patience - rejections[r], rung_end - steps[r],
                limit[r] - steps[r], ahead - steps[r],
            ))
            ahead = min(ahead, steps[r] + size)
            if filled[r] - cursor[r] < size:
                rest = filled[r] - cursor[r]
                queue_index[r, :rest] = queue_index[r, cursor[r] : filled[r]]
                queue_step[r, :rest] = queue_step[r, cursor[r] : filled[r]]
                queue_index[r, rest : rest + _DRAWS] = rngs[r].integers(dim, size=_DRAWS)
                queue_step[r, rest : rest + _DRAWS] = rngs[r].standard_normal(_DRAWS)
                cursor[r] = 0
                filled[r] = rest + _DRAWS
            sizes.append(size)
        owner = np.repeat(climbing, sizes)
        rows = np.arange(owner.shape[0])
        column = cursor[owner] + rows - np.repeat(np.cumsum(sizes) - sizes, sizes)
        move = queue_index[owner, column]
        candidate = x[owner]
        candidate[rows, move] += config.step_scale * factor[owner] * queue_step[owner, column]
        total = rows.shape[0]
        improved = np.zeros(total, dtype=bool)
        new_score = np.empty(total)
        new_v = np.empty(total)
        scored = slice(None)
        if m == 4:
            # t-half moves leave the tables unchanged: rejections, unscored.
            scored = (move < 3 * m) | (move >= 6 * m)
        if m > 4 or scored.any():
            scored_owner = owner[scored]
            tables, solved = _state_tables(candidate[scored], w_ab, m, config.rho_min)
            scores, values = _scores(tables, beta[scored_owner])
            new_score[scored], new_v[scored] = scores, values
            improved[scored] = solved & (scores > score[scored_owner])
        start = 0
        reached = math.inf  # steps taken by the lower-index restarts
        for r, size in zip(climbing, sizes):
            usable = max(0, min(size, limit[r] - steps[r], reached - steps[r]))
            hits = np.flatnonzero(improved[start : start + usable])
            taken = int(hits[0]) + 1 if hits.size else usable
            cursor[r] += taken
            steps[r] += taken
            evals += taken
            if hits.size:
                i = start + taken - 1
                x[r] = candidate[i]
                score[r] = new_score[i]
                if new_v[i] > best_v[r]:
                    best_v[r] = new_v[i]
                    best_x[r] = candidate[i]
                    if on_accept is not None:
                        on_accept(candidate[i].copy(), float(new_v[i]))
                    if best_v[r] >= 1.0:
                        limit[r:] = [min(cap, steps[r]) for cap in limit[r:]]
                rejections[r] = 0
                streak[r] = streak[r] + 1 if taken == 1 else 1
                if streak[r] >= 10:
                    factor[r] = min(factor[r] * 2.0, _FACTOR_CAP)
                    streak[r] = 0
            elif taken:
                streak[r] = 0
                rejections[r] += taken
                if rejections[r] >= config.patience:
                    factor[r] *= 0.5
                    rejections[r] = 0
            reached = min(reached, steps[r])
            start += size
    return best_v, best_x, evals


def inner_maximize(
    settings: SettingsEnsemble,
    config: SearchConfig,
    on_accept: Optional[Callable[[np.ndarray, float], None]] = None,
) -> tuple[DiscreteLhvModel, VisibilityEstimate]:
    """Largest certified V over M-state local models at fixed settings.

    Climbs config.restarts restarts of the SVD construction, keeps the
    best (ties to the lowest restart index), then runs the
    alternating-LP finish over general tables and weights on that
    model, seeded from config.seed on its own stream.  The returned
    model passes validate_model at 1e-8, has positive weight on all
    m_states states, and its visibility is the estimate's value, which
    is never below the climb's.

    Restarts draw from independent streams and advance together.  A
    restart whose best reaches V = 1 stops, and so does every restart
    with a higher index; the winner is the same as if they climbed on,
    but estimate.iterations_used counts only the steps taken.
    on_accept sees every climb state that improves its restart's best,
    which state_to_model rebuilds, in order within each restart but not
    across restarts; the finish does not report through it.
    """
    if settings.n_settings != config.n_settings:
        raise InvalidInputError(
            f"settings have {settings.n_settings} directions per side, "
            f"config expects {config.n_settings}"
        )
    best_v, best_x, evals = _climb(settings, config, on_accept)
    best_index = min(range(config.restarts), key=lambda r: (-best_v[r], r))
    model = state_to_model(best_x[best_index], settings, config)
    model = seesaw(model, settings, _derive_rng([config.seed, _TAG_FINISH]))
    estimate = VisibilityEstimate(
        value=model.visibility,
        std_error=0.0,
        n_settings=settings.n_settings,
        provenance="mc-search",
        seed=config.seed,
        iterations_used=evals,
    )
    return model, estimate


def perturb_settings(
    settings: SettingsEnsemble, rng: np.random.Generator, sigma: float = _SETTINGS_JITTER
) -> SettingsEnsemble:
    """Small-angle jitter of every direction on both sides."""
    def jitter(side):
        out = []
        for d in side:
            vec = d.as_array() + sigma * rng.standard_normal(3)
            norm = float(np.linalg.norm(vec))
            out.append(d if norm <= 1e-12 else Direction(*(vec / norm)))
        return tuple(out)

    return SettingsEnsemble(jitter(settings.a_side), jitter(settings.b_side))


def outer_minimize(
    config: SearchConfig,
    on_progress: Optional[Callable[[int, VisibilityEstimate], None]] = None,
) -> VisibilityEstimate:
    """Minimize the inner maximum over measurement settings.

    Alternates fresh uniform settings with small-angle perturbations of
    the worst settings found so far (50/50).  std_error is a bootstrap
    over the outer samples' inner maxima.
    """
    n = config.n_settings
    base = [config.seed, n]
    rng = _derive_rng(base + [_TAG_OUTER])
    worst_settings = None
    worst_value = math.inf
    inner_maxima = []
    total_evals = 0
    for k in range(config.outer_iters):
        if worst_settings is None or rng.random() < 0.5:
            settings = SettingsEnsemble.random(n, rng)
        else:
            settings = perturb_settings(worst_settings, rng)
        inner_config = replace(config, seed=_derive_seed(base + [_TAG_INNER_SEED, k]))
        _, est = inner_maximize(settings, inner_config)
        total_evals += est.iterations_used
        inner_maxima.append(est.value)
        if est.value < worst_value:
            worst_value = est.value
            worst_settings = settings
        if on_progress is not None:
            on_progress(k, est)

    values = np.array(inner_maxima)
    boot_rng = _derive_rng(base + [_TAG_BOOTSTRAP])
    count = values.shape[0]
    resample_minima = [
        float(np.min(values[boot_rng.integers(0, count, count)]))
        for _ in range(_BOOTSTRAP_RESAMPLES)
    ]
    return VisibilityEstimate(
        value=float(np.min(values)),
        std_error=float(np.std(resample_minima)),
        n_settings=n,
        provenance="mc-search",
        seed=config.seed,
        iterations_used=total_evals,
    )


def n_sweep(
    n_values: Sequence[int],
    config: SearchConfig,
    on_result: Optional[Callable[[VisibilityEstimate], None]] = None,
) -> list[VisibilityEstimate]:
    """One outer minimization per settings count, shared base seed.

    Failures at one N are logged and skipped; the sweep continues.  The
    returned estimates identify their N, so callers can detect gaps.
    """
    cleaned = []
    for n in n_values:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidInputError(f"settings counts must be integers >= 1, got {n!r}")
        cleaned.append(int(n))
    if any(b < a for a, b in zip(cleaned, cleaned[1:])):
        raise InvalidInputError(f"settings counts must be sorted ascending, got {cleaned}")
    results = []
    for n in cleaned:
        try:
            est = outer_minimize(replace(config, n_settings=n))
        except LvtError as exc:
            logger.warning("sweep failed at %d settings per side: %s", n, exc)
            continue
        results.append(est)
        if on_result is not None:
            on_result(est)
    return results


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of V(N) = v_inf + c * N^(-alpha)."""

    v_inf: float
    c: float
    alpha: float
    rss: float
    v_inf_std: float


def fit_power_law(n_values: Sequence[int], values: Sequence[float]) -> PowerLawFit:
    """Grid over alpha, linear fit of (v_inf, c) at each, best residual wins."""
    n_arr = np.asarray(n_values, dtype=float)
    v_arr = np.asarray(values, dtype=float)
    if n_arr.ndim != 1 or n_arr.shape != v_arr.shape or n_arr.shape[0] < 3:
        raise InvalidInputError("need at least 3 (n, value) pairs to fit")
    if np.unique(n_arr).shape[0] < 3:
        raise InvalidInputError("need at least 3 distinct settings counts to fit")
    best = None
    for alpha in _ALPHA_GRID:
        design = np.column_stack([np.ones_like(n_arr), n_arr ** (-alpha)])
        coef, _, _, _ = np.linalg.lstsq(design, v_arr, rcond=None)
        residual = v_arr - design @ coef
        rss = float(residual @ residual)
        if best is None or rss < best[0]:
            best = (rss, alpha, coef, design)
    rss, alpha, coef, design = best
    dof = n_arr.shape[0] - 2
    if dof > 0 and rss > 1e-30:
        covariance = (rss / dof) * np.linalg.inv(design.T @ design)
        v_inf_std = float(math.sqrt(max(0.0, covariance[0, 0])))
    else:
        v_inf_std = 0.0
    return PowerLawFit(
        v_inf=float(coef[0]), c=float(coef[1]), alpha=float(alpha),
        rss=rss, v_inf_std=v_inf_std,
    )


def extrapolate(estimates: Sequence[VisibilityEstimate]) -> VisibilityEstimate:
    """Infinite-N limit of a sweep via the power-law fit.

    The result carries n_settings = 0 (no finite settings count) and
    the fit-derived uncertainty.
    """
    ests = list(estimates)
    if len(ests) < 3 or len({e.n_settings for e in ests}) < 3:
        raise InvalidInputError("extrapolation needs at least 3 estimates with distinct N")
    if any(e.n_settings < 1 for e in ests):
        raise InvalidInputError("extrapolation inputs must have n_settings >= 1")
    fit = fit_power_law([e.n_settings for e in ests], [e.value for e in ests])
    return VisibilityEstimate(
        value=min(1.0, max(0.0, fit.v_inf)),
        std_error=fit.v_inf_std,
        n_settings=0,
        provenance="mc-search",
        seed=ests[0].seed,
        iterations_used=sum(e.iterations_used for e in ests),
    )
