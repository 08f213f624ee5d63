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

Once M >= (N+1)^2 the climb is capped at one step per restart, and the
finish alone carries the search.  A basic optimum of the finish's
weight LP has at most (N+1)^2 states (its equality rows), so there it
always fits in M states, and each weight step works as column
generation over the fresh random sign states it is offered (the
see-saw method of Brierley, Navascues and Vertesi, arXiv:1609.05011).
Below (N+1)^2 the finish needs the climb's model: at M = 5 and N = 3
or 4, started from a one-step climb, it ends 0.36-0.59 lower.

The climb state is a flat vector of 7M reals: the 6 raw frame vectors
plus raw weights.  One stacked kernel, _state_tables, turns states
into raw tables: it re-projects the constraints (floor simplex for
rho, sqrt(rho)-orthogonality, biorthogonality via the closed-form
adjugate of a 3x3 system).  The climb reads the certified visibility
off its tables, and state_to_model builds the reported model from
them.  The relative scale of q versus t is balanced in closed form:
scaling q by s multiplies the A table by s and the B table by 1/s, so
the best achievable value at a given state is 1/(max|A'| max|B'|),
capped at 1.

Each restart draws its moves in bulk, 256 at a time, into a ring that
holds two such batches, indexed by step.  Most moves are rejected, so
each restart scores a block of its next moves against its current
state, and one stacked evaluation scores the blocks of all live
restarts; the restart takes the first improving move, exactly as a
one-move-per-step climb would.  Restarts advance independently.  Once a
restart's best reaches V = 1, it and every higher-index restart stop,
since none of them can then win, and steps past that one do not count.

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
    _floor_normalized,
    gram_svd,
    project_out,
    unit_rows,
)
from .core import seeded_rng
from .errors import ConstructionFailureError, InvalidInputError, LvtError
from .estimate import VisibilityEstimate
from .seesaw import lp_rows_bound, seesaw

logger = logging.getLogger(__name__)

# Stream tags keeping the derived RNGs of the loops disjoint.
_TAG_RESTART = 1
_TAG_OUTER = 2
_TAG_INNER_SEED = 3
_TAG_BOOTSTRAP = 4
_TAG_FINISH = 5

# A move adds _STEP_SCALE * factor * (a standard normal) to one
# coordinate.  The factor halves after _PATIENCE rejections in a row and
# doubles after 10 acceptances in a row, up to the cap; the run stops
# early once it shrinks through the floor (roughly 10 * _PATIENCE
# straight rejections).
_STEP_SCALE = 0.25
_PATIENCE = 60
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

# Adjugate of a row-major 3x3 matrix c[0..8]: with f = c[_ADJ_FACTORS],
# entry k is f[k] f[18+k] - f[9+k] f[27+k].
_ADJ_FACTORS = np.array([
    4, 2, 1, 5, 0, 2, 3, 1, 0,  5, 1, 2, 3, 2, 0, 4, 0, 1,
    8, 7, 5, 6, 8, 3, 7, 6, 4,  7, 8, 4, 8, 6, 5, 6, 7, 3,
])

_BOOTSTRAP_RESAMPLES = 200
_SETTINGS_JITTER = 0.25

_ALPHA_GRID = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the max-min search.

    inner_iters is each restart's climb budget wherever
    m_states < (n_settings+1)^2; at larger m_states the climb takes one
    step per restart and the see-saw finish does the rest (module
    docstring).  The climb's step scale, patience and weight floor are
    fixed: _STEP_SCALE, _PATIENCE and DEFAULT_RHO_MIN.
    """

    n_settings: int
    m_states: int = 4
    inner_iters: int = 4000
    outer_iters: int = 24
    restarts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_settings", "m_states", "inner_iters", "outer_iters",
                     "restarts", "seed"):
            raw = getattr(self, name)
            if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
                raise InvalidInputError(f"{name} must be an integer, got {raw!r}")
            object.__setattr__(self, name, int(raw))
        if self.n_settings < 1:
            raise InvalidInputError(f"n_settings must be >= 1, got {self.n_settings}")
        if self.m_states < 4:
            raise InvalidInputError(f"m_states must be >= 4, got {self.m_states}")
        for name in ("inner_iters", "outer_iters", "restarts"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


def _derive_seed(*entropy: int) -> int:
    """Stable 64-bit seed from the stream seeded_rng(*entropy) names."""
    seq = seeded_rng(*entropy).bit_generator.seed_seq
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _scaled_factors(settings: SettingsEnsemble) -> np.ndarray:
    """The (2, N, 3) stack [U sqrt(p), V sqrt(p)] of the Gram's factors."""
    svd = gram_svd(settings)
    sqrt_p = np.sqrt(svd.p)
    return np.stack([svd.u * sqrt_p, svd.v * sqrt_p])


def _state_tables(x: np.ndarray, w_ab: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw tables of a stack of search states: the one table kernel.

    x holds one state per row, shape (R, 7M); w_ab is
    _scaled_factors(settings), shape (2, N, 3).  Returns the
    (R, 2, N, M) stack of (A', B') pairs plus a mask of the rows whose
    3x3 biorthogonalizing system was solvable (nonzero determinant);
    unsolvable rows carry zero tables.  Weights are floored at
    DEFAULT_RHO_MIN.
    """
    count = x.shape[0]
    srho = np.sqrt(_floor_normalized(x[:, 6 * m :], DEFAULT_RHO_MIN))
    frame = project_out(x[:, : 6 * m].reshape(count, 6, m), srho)
    # Each row's system t q^T is solved by its adjugate: one gather of
    # cofactor products from the flattened 3x3 matrix, the determinant
    # from its first row, and 1/det folded into the final division.  At
    # the climb's batch sizes this costs a fraction of np.linalg.inv's
    # per-matrix LAPACK calls and agrees with it to round-off.
    cross = (frame[:, 3:] @ frame[:, :3].transpose(0, 2, 1)).reshape(count, 9)
    factors = cross[:, _ADJ_FACTORS]
    products = factors[:, :18] * factors[:, 18:]
    adjugate = products[:, :9] - products[:, 9:]
    # Unfused products, then a sum: with two equal q rows (two equal
    # columns of the system) the terms cancel to exactly zero.
    det = (cross[:, :3] * adjugate[:, ::3]).sum(axis=1)
    solved = det != 0.0
    frame[:, 3:] = adjugate.reshape(count, 3, 3) @ frame[:, 3:]
    divisor = np.empty((count, 2, 1, m))
    divisor[:, 0, 0] = srho
    np.multiply(srho, det[:, None], out=divisor[:, 1, 0])
    if not solved.all():
        frame[~solved] = 0.0
        divisor[~solved] = 1.0
    return w_ab @ (frame.reshape(count, 2, 3, m) / divisor), solved


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
    soft = np.isfinite(beta)
    all_soft = soft.all()
    if all_soft or soft.any():
        sharp = (beta if all_soft else np.where(soft, beta, 1.0))[:, None]
        magnitudes -= peaks[:, :, None]
        magnitudes *= sharp[:, :, None]
        # Exponents are at least -beta * peak, so below 700 the floor
        # clamps nothing.
        if not (sharp * peaks).max() < -_EXPONENT_FLOOR:
            np.maximum(magnitudes, _EXPONENT_FLOOR, out=magnitudes)
        spread = np.exp(magnitudes, out=magnitudes).sum(axis=2)
        soft_max = np.log(spread) / sharp + peaks
        score = 1.0 / (soft_max[:, 0] * soft_max[:, 1])
        if not all_soft:
            score = np.where(soft, score, visibility)
    else:
        score = visibility.copy()
    if not np.isfinite(peaks).all():
        finite = np.isfinite(peaks).all(axis=1)
        score[~finite] = -np.inf
        visibility[~finite] = 0.0
    return score, visibility


def state_to_model(x: np.ndarray, settings: SettingsEnsemble) -> DiscreteLhvModel:
    """Materialize the discrete model a length-7M search state encodes.

    Takes the raw tables from _state_tables, the kernel the climb
    scores with, and subtracts each row's rho-weighted mean.  That mean
    is zero in exact arithmetic (A' rho = 0), so the correlations move
    only by round-off, while the marginals stay at zero even where the
    kernel's round-off along sqrt(rho) does not: an inert M = 4 t half
    may hold anything.  Then balances the q/t scale: with both tables
    normalized by their own largest entry the certified visibility is
    1/(max|A'| max|B'|), capped at 1.  A state holding NaN or inf
    raises InvalidInputError; one whose 3x3 biorthogonalizing system is
    singular raises ConstructionFailureError.
    """
    x = np.asarray(x, dtype=float)
    m = x.size // 7
    if m < 4 or x.shape != (7 * m,):
        raise InvalidInputError(f"state must have length 7M with M >= 4, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInputError("state is not finite: it holds NaN or inf")
    tables, solved = _state_tables(x[None], _scaled_factors(settings), m)
    if not solved[0]:
        raise ConstructionFailureError("the state's 3x3 biorthogonalizing system is singular")
    rho = _floor_normalized(x[6 * m :], DEFAULT_RHO_MIN)
    a_raw, b_raw = tables[0] - (tables[0] @ rho)[..., None]
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


def _climb(settings: SettingsEnsemble, config: SearchConfig) -> tuple[float, np.ndarray, int]:
    """All restarts of one call, each scoring a block of moves at a time.

    Each restart draws its moves from its own stream, _DRAWS at a time
    (the coordinates, then the step lengths), into a ring of two
    batches: its move at step k sits in column k % (2 _DRAWS), so a
    block, at most _BLOCK_MOVES moves, never reads past the batch after
    the current one.  A block scores a restart's next moves against its
    current state, stacked with every other live restart's block in one
    kernel call, and takes the first improving move; the moves before it
    count as rejections.  A block ends where a stepwise climb (one move
    per step) would change how it scores or moves: at a sharpness rung,
    at the rejection that halves the step factor, and at the iteration
    budget.

    Once restart r's best reaches V = 1, restart r and every restart
    with a higher index stop: no value beats 1, and ties go to the
    lowest index, so none of them can then win.  Restarts do not wait
    for each other, so a higher-index restart may already have climbed
    past that step; its steps past it do not count.

    At M = 4 a move in the t half (coordinates 3M to 6M) is inert, so it
    is left out of the kernel call and taken as a rejection, as exact
    arithmetic would take it: it counts as a step and toward the
    patience, ends the run of consecutive acceptances, and leaves the
    state, the score and the best as they are.  Returns the winner's
    (best value, best state), the highest value with ties to the lowest
    restart index, and the steps counted.
    """
    w_ab = _scaled_factors(settings)
    m = config.m_states
    dim = 7 * m
    count = config.restarts
    rngs = [seeded_rng(config.seed, _TAG_RESTART, r) for r in range(count)]

    evals = 0
    x = np.empty((count, dim))
    exact = np.array([math.inf])
    for r, rng in enumerate(rngs):
        for _ in range(100):
            x[r] = np.concatenate([rng.standard_normal(6 * m), rng.uniform(0.0, 1.0, m)])
            evals += 1
            tables, solved = _state_tables(x[r : r + 1], w_ab, m)
            if solved[0] and _scores(tables, exact)[0][0] > -np.inf:
                break
        else:
            raise ConstructionFailureError("no feasible starting frame found in 100 draws")

    ladder = [_SHARPNESS_BASE * 2.0**k for k in range(_SHARPNESS_DOUBLINGS)]
    ladder.append(math.inf)  # exact objective on the final rung
    phase_len = max(1, config.inner_iters // len(ladder))
    beta = np.full(count, ladder[0])
    score, best_v = _scores(_state_tables(x, w_ab, m)[0], beta)

    # Per-restart counters are lists, cheaper than arrays to read singly.
    score, best_v = score.tolist(), best_v.tolist()
    best_x = x.copy()
    block = _block_moves(settings.n_settings, m)
    factor = [1.0] * count
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
    # Restart r's move at step k sits in column k % ring.
    ring = 2 * _DRAWS
    ring_index = np.empty((count, ring), dtype=np.intp)
    ring_step = np.empty((count, ring))
    drawn = [0] * count
    while True:
        climbing = [
            r for r in range(count) if factor[r] >= _FACTOR_FLOOR and steps[r] < limit[r]
        ]
        if not climbing:
            break
        sizes = []
        shifts = []  # step minus block row, per restart
        row = 0
        rescored = []
        for r in climbing:
            phase = steps[r] // phase_len
            if steps[r] > 0 and steps[r] % phase_len == 0 and phase < len(ladder):
                beta[r] = ladder[phase]
                rescored.append(r)
            if phase + 1 < len(ladder):
                rung_end = (phase + 1) * phase_len
            else:
                rung_end = config.inner_iters
            size = min(block, _PATIENCE - rejections[r], rung_end - steps[r], limit[r] - steps[r])
            if steps[r] + size > drawn[r]:
                batch = slice(drawn[r] % ring, drawn[r] % ring + _DRAWS)
                ring_index[r, batch] = rngs[r].integers(dim, size=_DRAWS)
                ring_step[r, batch] = rngs[r].standard_normal(_DRAWS)
                drawn[r] += _DRAWS
            shifts.append(steps[r] - row)
            sizes.append(size)
            row += size
        if rescored:
            tables, _ = _state_tables(x[rescored], w_ab, m)
            for r, value in zip(rescored, _scores(tables, beta[rescored])[0].tolist()):
                score[r] = value
        owner, shift = np.array([climbing, shifts]).repeat(sizes, axis=1)
        scale, current = np.array(
            [[_STEP_SCALE * factor[r] for r in climbing], [score[r] for r in climbing]]
        ).repeat(sizes, axis=1)
        rows = np.arange(owner.shape[0])
        column = (rows + shift) % ring
        move = ring_index[owner, column]
        candidate = x[owner]
        candidate[rows, move] += scale * ring_step[owner, column]
        if m > 4:
            tables, solved = _state_tables(candidate, w_ab, m)
            new_score, new_v = _scores(tables, beta[owner])
            improved = solved & (new_score > current)
        else:
            # t-half moves leave the tables unchanged: rejections, unscored.
            scored = (move < 3 * m) | (move >= 6 * m)
            total = rows.shape[0]
            improved = np.zeros(total, dtype=bool)
            new_score = np.empty(total)
            new_v = np.empty(total)
            if scored.any():
                tables, solved = _state_tables(candidate[scored], w_ab, m)
                scores, values = _scores(tables, beta[owner[scored]])
                new_score[scored], new_v[scored] = scores, values
                improved[scored] = solved & (scores > current[scored])
        hits = improved.tolist()
        start = 0
        for r, size in zip(climbing, sizes):
            hit = True in hits[start : start + size]
            taken = hits.index(True, start, start + size) - start + 1 if hit else size
            steps[r] += taken
            if hit:
                i = start + taken - 1
                x[r] = candidate[i]
                score[r] = float(new_score[i])
                if new_v[i] > best_v[r]:
                    best_v[r] = float(new_v[i])
                    best_x[r] = candidate[i]
                    if best_v[r] >= 1.0:
                        limit[r:] = [min(cap, steps[r]) for cap in limit[r:]]
                rejections[r] = 0
                streak[r] = streak[r] + 1 if taken == 1 else 1
                if streak[r] >= 10:
                    factor[r] = min(factor[r] * 2.0, _FACTOR_CAP)
                    streak[r] = 0
            else:
                streak[r] = 0
                rejections[r] += taken
                if rejections[r] >= _PATIENCE:
                    factor[r] *= 0.5
                    rejections[r] = 0
            start += size
    winner = min(range(count), key=lambda r: (-best_v[r], r))
    evals += sum(min(done, cap) for done, cap in zip(steps, limit))
    return best_v[winner], best_x[winner], evals


def _climb_iters(n: int, config: SearchConfig) -> int:
    """Climb steps per restart: 1 where M >= (N+1)^2, else config.inner_iters."""
    return 1 if config.m_states >= (n + 1) ** 2 else config.inner_iters


def inner_maximize(
    settings: SettingsEnsemble, config: SearchConfig
) -> tuple[DiscreteLhvModel, VisibilityEstimate]:
    """Largest certified V over M-state local models at fixed settings.

    Climbs config.restarts restarts of the SVD construction and takes
    the best (ties to the lowest restart index), then runs the
    alternating-LP finish over general tables and weights on that
    model, seeded from config.seed on its own stream.  The returned
    model passes validate_model at 1e-8, has positive weight on all
    m_states states, and its visibility is the estimate's value, which
    is never below the climb's.

    Restarts draw from independent streams and are scored together.  A
    restart whose best reaches V = 1 stops, and so does every restart
    with a higher index; the winner is the same as if they climbed on,
    but estimate.iterations_used counts only the steps up to that step.

    When m_states >= (n_settings+1)^2, every basic optimum of the
    finish's weight LP fits in m_states states, so the finish reaches
    the optimum by itself.  Each restart then draws its feasible start
    and climbs one step, whatever config.inner_iters says, and
    iterations_used is about 2 per restart.
    """
    if settings.n_settings != config.n_settings:
        raise InvalidInputError(
            f"settings have {settings.n_settings} directions per side, "
            f"config expects {config.n_settings}"
        )
    climb_config = replace(config, inner_iters=_climb_iters(settings.n_settings, config))
    _, state, evals = _climb(settings, climb_config)
    model = state_to_model(state, settings)
    model = seesaw(model, settings, seeded_rng(config.seed, _TAG_FINISH))
    estimate = VisibilityEstimate(
        value=model.visibility,
        std_error=0.0,
        n_settings=settings.n_settings,
        provenance="mc-search",
        seed=config.seed,
        iterations_used=evals,
    )
    return model, estimate


def perturb_settings(settings: SettingsEnsemble, rng: np.random.Generator) -> SettingsEnsemble:
    """Small-angle jitter of every direction on both sides, a side per draw."""
    def jitter(side):
        return unit_rows(side + _SETTINGS_JITTER * rng.standard_normal(side.shape))

    return SettingsEnsemble(jitter(settings.a_matrix), jitter(settings.b_matrix))


def outer_minimize(config: SearchConfig) -> VisibilityEstimate:
    """Minimize the inner maximum over measurement settings.

    Alternates fresh uniform settings with small-angle perturbations of
    the worst settings found so far (50/50).  std_error is a bootstrap
    over the outer samples' inner maxima.
    """
    n = config.n_settings
    rng = seeded_rng(config.seed, n, _TAG_OUTER)
    worst_settings = None
    worst_value = math.inf
    inner_maxima = []
    total_evals = 0
    for k in range(config.outer_iters):
        if worst_settings is None or rng.random() < 0.5:
            settings = SettingsEnsemble.random(n, rng)
        else:
            settings = perturb_settings(worst_settings, rng)
        inner_config = replace(config, seed=_derive_seed(config.seed, n, _TAG_INNER_SEED, k))
        _, est = inner_maximize(settings, inner_config)
        total_evals += est.iterations_used
        inner_maxima.append(est.value)
        if est.value < worst_value:
            worst_value = est.value
            worst_settings = settings

    values = np.array(inner_maxima)
    boot_rng = seeded_rng(config.seed, n, _TAG_BOOTSTRAP)
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


def sweep_work(n_values: Sequence[int], config: SearchConfig) -> dict:
    """Count the work n_sweep(n_values, config) asks for, without running it.

    "climb steps": restart-steps scored, the starting state and the step
    budget of every restart of every outer step, times the share of
    moves the climb scores (4 in 7 at M = 4, whose t-half moves are
    rejected unscored).  The budget is one step at each N with
    M >= (N+1)^2, where inner_maximize caps the climb.  "climb table
    entries": those steps times the N * M table entries each one
    scores.  "finish LP rows": an upper bound on the equality rows of
    every see-saw LP, at its round cap.
    """
    m = config.m_states
    share = 4.0 / 7.0 if m == 4 else 1.0
    steps = [
        config.outer_iters * config.restarts * (_climb_iters(n, config) + 1) * share
        for n in n_values
    ]
    return {
        "climb steps": sum(steps),
        "climb table entries": sum(count * m * n for n, count in zip(n_values, steps)),
        "finish LP rows": config.outer_iters * sum(lp_rows_bound(n, m) for n in n_values),
    }


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
