"""Seeded Monte Carlo studies of the gap measurement error.

Each trial draws a random reduced model for a fixed classifier (fixed per
slice error rates p and r), computes the exact measurement error, and the run
aggregates the error distribution against the theoretical bounds.

Reproducibility contract: trial i of a run with master seed s consumes the
dedicated stream ``derive_trial_stream(s, i)`` and nothing else, so results
are independent of execution order and identical runs are bit-identical.

``run_monte_carlo`` and ``sweep`` do not build those streams one by one.
Both drive one engine loop, ``_points``: a run is its one-point case, and a
sweep's grid points are its points. Philox is counter-based, so double j of
trial i is a pure function of (s, i, j): the loop takes a whole block's keys
from ``_trial_key``, the function that keys ``derive_trial_stream``, and
``_block_errors`` computes the doubles with numpy array arithmetic. A
constrained attempt's seven doubles become its six cells through
``_constrained_cells`` and are kept by ``_accepted``, the one map and the one
test that ``sample_constrained`` applies to its own stream's doubles. The
errors come from :func:`model.gap_terms`, the one gap formula that
``compute_gaps`` wraps, applied to whole arrays of trials. So the engine's
results are bit-identical to running ``derive_trial_stream``, ``sample_*``
and ``compute_gaps`` per trial. The reference the engine is tested against
is a transcription in ``tests/oracles.py`` that draws each uniform with
``Generator.uniform``, one trial at a time.

The engine computes each Philox block of a trial at most once. Rejection
runs in passes over a block of trials: a pass gives each pending trial as
many attempts as the acceptance seen so far makes likely to suffice, and
the unused doubles of a pending trial's last block carry into its next
pass. ``_points`` feeds all of its points' trials through the engine as
one sequence, so a block of trials can span points; each trial still reads
only its own point's stream, and one point's errors are held at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import BoundReport, bound_report_from_params, classifier_structure_params
from .errors import (
    EmptySample,
    RejectionBudgetExhausted,
    ValidationError,
)
from .model import (
    U64, Count, NonNegative, ReducedModel, SliceParams, SliceRates, Unit, _check_fields,
    _require_count, _require_instance, _require_real, _require_real_array, _require_u64, _ValueEq,
    gap_terms,
)

__all__ = [
    "SamplerConfig",
    "Histogram",
    "SimulationResult",
    "SweepPoint",
    "derive_trial_stream",
    "derive_point_seed",
    "sample_unconstrained",
    "sample_constrained",
    "percentile",
    "config_bounds",
    "run_monte_carlo",
    "sweep",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Trials per block of the vectorized engine, and about the most attempts one
#: rejection pass computes. A block's temporaries are a few dozen arrays of
#: this length, so memory stays bounded whatever the trial count or the
#: length of a sweep's grid, whose points share blocks; results never depend
#: on it.
_BLOCK = 4096

#: Most trials one run may have: its errors array takes 800 MB, its
#: ``errors.csv`` about 2 GB.
MAX_TRIALS = 10**8

#: Most histogram bins one run may have: its edges and counts take 16 MB.
MAX_BINS = 10**6


def _splitmix64(z):
    """One output of the splitmix64 generator for state ``z`` (64-bit).

    ``z`` is a Python int or a uint64 array. Arrays wrap modulo 2**64 by
    themselves, so the masks leave them unchanged.
    """
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64(a, b):
    """Mix two 64-bit words into one, splitmix64 over both (ints or uint64 arrays)."""
    return _splitmix64((a & _MASK64) ^ _splitmix64((b & _MASK64) + _GOLDEN))


def _trial_key(seed, index):
    """Philox key words ``(lo, hi)`` of trial ``index`` (an int or a uint64 array)."""
    lo = _mix64(seed, index)
    return lo, _splitmix64(lo)


def derive_trial_stream(seed: int, trial_index: int) -> np.random.Generator:
    """Dedicated random stream for one trial of one run.

    The pair (seed, trial_index) is hashed through splitmix64 into a 128-bit
    Philox key: ``lo = mix(seed, index)``, ``hi = splitmix(lo)``. The one
    ``_trial_key`` derives it here and, for whole blocks of trials, in the
    engine loop that ``run_monte_carlo`` and ``sweep`` share. Distinct pairs yield distinct keys, and
    Philox guarantees independent streams for distinct keys, so trials never
    share randomness and the mapping is stable across runs, platforms, and
    worker counts.
    """
    lo, hi = _trial_key(_require_u64(seed, "seed"), _require_u64(trial_index, "trial_index"))
    return np.random.Generator(np.random.Philox(key=(hi << 64) | lo))


def derive_point_seed(seed: int, index: int) -> int:
    """Per-point master seed for sweeps: a 64-bit mix of (seed, index)."""
    return _mix64(_require_u64(seed, "seed"), _require_u64(index, "index"))


_MODES = ("unconstrained", "constrained")


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    """Fixed classifier error rates plus the sampling mode for trial models.

    In constrained mode the outcome rates are drawn from the closeness budgets
    ``eps_b1`` (within-slice diagonal closeness) and ``eps_b2`` (across-slice
    translation residual); both are required then and must be absent in
    unconstrained mode. An accepted draw keeps |c0 - b0| <= eps_b1 on slice 0
    and each translation residual within eps_b2, so its tight eps_B2 is at most
    ``eps_b2``. Slice 1's diagonal |c1 - b1| is not held to ``eps_b1``: it can
    reach eps_b1 + 2 eps_b2. ``max_rejections`` caps the attempts per
    constrained trial.
    """

    p0: Unit
    r0: Unit
    p1: Unit
    r1: Unit
    mode: str
    eps_b1: Unit | None = None
    eps_b2: Unit | None = None
    max_rejections: Count = 10000

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.mode not in _MODES:
            raise ValidationError(
                f"mode must be one of {_MODES}, got {self.mode!r}"
            )
        for name in ("eps_b1", "eps_b2"):
            absent = getattr(self, name) is None
            if absent and self.mode == "constrained":
                raise ValidationError(f"constrained mode requires {name}")
            if not absent and self.mode != "constrained":
                raise ValidationError(f"{name} only applies to constrained mode")


def _model(config: SamplerConfig, cells) -> ReducedModel:
    """The trial model of ``config``'s classifier with outcome rates ``cells``:
    a0, b0, c0, a1, b1, c1."""
    a0, b0, c0, a1, b1, c1 = cells
    return ReducedModel(
        slice0=SliceParams(p=config.p0, r=config.r0, a=a0, b=b0, c=c0),
        slice1=SliceParams(p=config.p1, r=config.r1, a=a1, b=b1, c=c1),
    )


def sample_unconstrained(
    config: SamplerConfig, stream: np.random.Generator
) -> ReducedModel:
    """One trial model with outcome rates drawn independently uniform.

    Consumes exactly six uniforms in the order a0, b0, c0, a1, b1, c1.
    """
    _require_instance(config, "config", SamplerConfig)
    _require_instance(stream, "stream", np.random.Generator)
    return _model(config, stream.random(6))


def _uniform(low, high, u):
    """``Generator.uniform(low, high)`` given its double ``u``."""
    return low + (high - low) * u


def _constrained_cells(u: np.ndarray, eps_b1: float, eps_b2: float) -> np.ndarray:
    """Cells a0, b0, c0, a1, b1, c1 of constrained attempts, stacked on a new first
    axis; cells may land outside [0, 1].

    ``u`` holds each attempt's seven doubles on its first axis: one attempt's
    ``stream.random(7)``, or the engine's (7, m, n) block. Double j becomes
    uniform on its range as ``Generator.uniform`` would draw it, in this
    order: the shift g uniform on [-1, 1]; a0 then b0 uniform on the
    g-feasible range ([0, 1-g] for g >= 0, [-g, 1] otherwise); the diagonal
    residual for c0 uniform on [-eps_b1, eps_b1]; then the three translation
    residuals for a1, b1, c1 uniform on [-eps_b2, eps_b2], in that order.
    """
    g = _uniform(-1.0, 1.0, u[0])
    negative = g < 0.0
    lo = np.where(negative, -g, 0.0)
    hi = np.where(negative, 1.0, 1.0 - g)
    a0 = _uniform(lo, hi, u[1])
    b0 = _uniform(lo, hi, u[2])
    c0 = b0 + _uniform(-eps_b1, eps_b1, u[3])
    return np.stack((
        a0, b0, c0,
        a0 + g + _uniform(-eps_b2, eps_b2, u[4]),
        b0 + g + _uniform(-eps_b2, eps_b2, u[5]),
        c0 + g + _uniform(-eps_b2, eps_b2, u[6]),
    ))


def _accepted(cells: np.ndarray) -> np.ndarray:
    """Whether each attempt of ``_constrained_cells`` has every cell in [0, 1]."""
    return ((cells >= 0.0) & (cells <= 1.0)).all(axis=0)


def sample_constrained(
    config: SamplerConfig, stream: np.random.Generator
) -> tuple[ReducedModel, int]:
    """One trial model by rejection, from seven doubles an attempt.

    Slice 0 rates are drawn in the shift-feasible range, slice 1 rates are
    the slice 0 rates translated by the shared shift plus independent
    residuals (``_constrained_cells``). Any cell outside [0, 1] discards the
    whole attempt; partial redraws would bias the accepted distribution.
    Returns the model and the number of attempts consumed (including the
    successful one). Raises :class:`RejectionBudgetExhausted` after
    ``max_rejections`` failed attempts.
    """
    _require_instance(config, "config", SamplerConfig)
    _require_instance(stream, "stream", np.random.Generator)
    if config.mode != "constrained":
        raise ValidationError("sample_constrained needs a constrained config")
    for attempt in range(1, config.max_rejections + 1):
        cells = _constrained_cells(stream.random(7), config.eps_b1, config.eps_b2)
        if _accepted(cells):
            return _model(config, cells), attempt
    raise RejectionBudgetExhausted(config.max_rejections)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ceil(q * N)-th smallest value.

    ``q`` must lie in (0, 1]; the collection must be non-empty
    (:class:`EmptySample` otherwise). The result is always an element of
    ``values``.
    """
    q = _require_real(q, "q", 0.0, 1.0, "(]")
    arr = _require_real_array(values, "values", flat=True)
    if arr.size == 0:
        raise EmptySample("percentile of an empty collection")
    # round before ceil so float dust in q * N cannot shift the rank
    rank = max(1, math.ceil(round(q * arr.size, 9)))
    return float(np.sort(arr)[rank - 1])


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram of errors over [0, 1].

    When any value exceeds 1 an overflow bin [1, 2] is appended, so
    ``counts`` always sums to the number of values. Counts are integers of
    at least 0.
    """

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_fields(self)
        if len(self.bin_edges) != len(self.counts) + 1:
            raise ValidationError("histogram needs one more edge than counts")
        for lo, hi in zip(self.bin_edges, self.bin_edges[1:]):
            if not lo < hi:
                raise ValidationError("histogram edges must strictly increase")


def _histogram(errors: np.ndarray, bins: int) -> Histogram:
    # values beyond the last edge fall out of np.histogram's counts and are
    # collected into the overflow bin instead
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(errors, bins=edges)
    overflow = int((errors > 1.0).sum())
    if overflow:
        edges = np.append(edges, 2.0)
        counts = np.append(counts, overflow)
    return Histogram(bin_edges=edges, counts=counts)


def config_bounds(config: SamplerConfig) -> BoundReport:
    """Bounds implied by the configured classifier and closeness budgets.

    Unconstrained runs place no closeness structure on the draws, so both
    eps budgets are the vacuous 1.0 there. Constrained runs evaluate B1 and
    both combined bounds at eps_B1 = ``eps_b1``, which slice 1's draws can
    exceed (see :class:`SamplerConfig`), so a constrained run's errors can
    exceed those bounds.
    """
    _require_instance(config, "config", SamplerConfig)
    if config.mode == "constrained":
        eps_b1, eps_b2 = config.eps_b1, config.eps_b2
    else:
        eps_b1, eps_b2 = 1.0, 1.0
    params = classifier_structure_params(
        config.p0, config.r0, config.p1, config.r1, eps_b1=eps_b1, eps_b2=eps_b2
    )
    return bound_report_from_params(params)


@dataclass(frozen=True, eq=False)
class SimulationResult(_ValueEq):
    """Aggregate of one Monte Carlo run; ``errors`` is in trial order. Two results are
    equal when every field is, ``errors`` by ``np.array_equal``; a result is not hashable."""

    n_trials: Count
    errors: np.ndarray = field(metadata={"key": None})
    p95: float
    histogram: Histogram = field(metadata={"key": None})
    bounds: BoundReport
    rejection_rate: float
    seed: U64

    def __post_init__(self) -> None:
        _check_fields(self)
        self.errors.setflags(write=False)


_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
#: Philox4x64-10 multipliers and key increments (Salmon et al., SC'11).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = _U64(0x9E3779B97F4A7C15)
_PHILOX_W1 = _U64(0xBB67AE8584CAA73B)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``m * x``.

    numpy has no 128-bit integers, so the high word is assembled from the
    32-bit limbs of both factors: with ``u = m_hi*x_lo + (m_lo*x_lo >> 32)``
    and ``v = m_lo*x_hi + (u & LOW32)``, it is ``m_hi*x_hi + (u >> 32) +
    (v >> 32)``. No partial sum can overflow 64 bits. The limb arrays are
    updated in place, so a call allocates six arrays for its 15 operations.
    """
    m_lo, m_hi = _U64(m & 0xFFFFFFFF), _U64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _U64(32)
    u = x_lo * m_lo
    u >>= _U64(32)
    x_lo *= m_hi
    u += x_lo
    v = x_hi * m_lo
    v += u & _LOW32
    x_hi *= m_hi
    u >>= _U64(32)
    x_hi += u
    v >>= _U64(32)
    x_hi += v
    return x_hi, x * _U64(m)


def _philox4x64(counter, k0, k1) -> list[np.ndarray]:
    """The four output words of Philox4x64-10 at counter ``(counter, 0, 0, 0)``.

    ``counter`` and the key words ``k0`` (low) and ``k1`` (high) are uint64
    arrays that broadcast against each other, e.g. counters as a column and
    one trial's key per column.
    """
    zero = _U64(0)
    c0, c1, c2, c3 = counter, zero, zero, zero
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        if r < 2:
            # the words grow to the broadcast shape of counter and key
            c0, c2 = hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1
        else:
            # from round 2 every multiply-high word has that shape already
            hi1 ^= c1
            hi1 ^= k0
            hi0 ^= c3
            hi0 ^= k1
            c0, c2 = hi1, hi0
        c1, c3 = lo1, lo0
    return [c0, c1, c2, c3]


def _stream_doubles(k0: np.ndarray, k1: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Doubles ``4*start .. 4*stop-1`` of each trial's stream, shape (4 (stop - start), n).

    ``np.random.Philox`` fills its buffer from counter 1 upwards, so doubles
    4b .. 4b+3 are the words of the block at counter b + 1, each turned into a
    double the way ``Generator.random`` does it: ``(word >> 11) * 2**-53``.
    """
    counters = np.arange(start + 1, stop + 1, dtype=np.uint64)
    words = _philox4x64(counters[:, None], k0, k1)
    doubles = np.empty((counters.size, 4, k0.size))
    for j, word in enumerate(words):
        word >>= _U64(11)
        np.multiply(word, 1.0 / 9007199254740992.0, out=doubles[:, j])
    return doubles.reshape(-1, k0.size)


#: log of the chance, 5%, that a pending trial is left pending by a pass sized
#: from the acceptance seen so far.
_LOG_MISS = math.log(0.05)


def _pass_attempts(pending: int, accepted: int, tries: np.ndarray, left: int) -> int:
    """Attempts per pending trial in the next rejection pass.

    ``accepted`` of the ``tries.sum()`` attempts consumed so far were
    accepted, so at the observed acceptance a all but 5% of the ``pending``
    trials find theirs within ceil(log 0.05 / log(1 - a)) attempts. A pass
    never covers more than about ``_BLOCK`` attempts in all, nor more than
    the ``left`` in the budget. Passes so sized make more kernel calls than
    passes that fill the block (56 against 44 on ``graph3_base`` at 5e4
    trials, seed 43) but compute 26% fewer Philox lanes, which saves more
    time than the extra calls cost.
    """
    m = _BLOCK // pending
    if accepted:
        a = accepted / int(tries.sum())
        m = 1 if a == 1.0 else min(m, math.ceil(_LOG_MISS / math.log1p(-a)))
    return max(1, min(m, left))


def _block_errors(
    config: SamplerConfig, k0: np.ndarray, k1: np.ndarray, budgets: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None, int | None]:
    """Errors of the trials keyed ``k0``, ``k1``, the attempts each consumed, and
    the position of the first trial that ran out of its rejection budget: the
    engine that ``_points`` runs on each block of trials.

    ``budgets`` holds each trial's eps_b1 and eps_b2 as its two rows; an
    unconstrained ``config`` reads neither, and each of its trials takes one
    attempt. When a trial runs out, the errors and attempts are None;
    otherwise the position is None.

    Attempt k + 1 of ``sample_constrained`` reads doubles ``7k .. 7k+6`` of
    its trial's stream. Each rejection pass gives every pending trial the
    next m attempts at once (``_pass_attempts``) and keeps the first that is
    accepted. An attempt can straddle two blocks of four doubles: the doubles
    of a pending trial's last block that its pass did not use are carried
    into the next pass, so no block of any trial is computed twice.
    """
    n = k0.size
    if config.mode != "constrained":
        cells, tries = _stream_doubles(k0, k1, 0, 2)[:6], np.broadcast_to(1, n)
    else:
        cells = np.empty((6, n))
        tries = np.zeros(n, dtype=np.int64)
        pending = np.arange(n)
        carry = np.empty((0, n))
        tried = 0
        while pending.size:
            if tried == config.max_rejections:
                return None, None, int(pending[0])
            m = _pass_attempts(pending.size, n - pending.size, tries, config.max_rejections - tried)
            # the carry holds doubles 7 tried onwards, to the end of their block
            fresh = _stream_doubles(k0, k1, -(-7 * tried // 4), -(-7 * (tried + m) // 4))
            u = np.concatenate((carry, fresh)) if carry.size else fresh
            carry = u[7 * m:]
            u = u[:7 * m].reshape(m, 7, -1).swapaxes(0, 1)
            drawn = _constrained_cells(u, budgets[0], budgets[1])
            ok = _accepted(drawn)
            first, accepted = ok.argmax(axis=0), ok.any(axis=0)
            done = np.flatnonzero(accepted)
            cells[:, pending[done]] = drawn[:, first[done], done]
            tries[pending] += np.where(accepted, first + 1, m)
            left = ~accepted
            pending, k0, k1 = pending[left], k0[left], k1[left]
            budgets, carry = budgets[:, left], carry[:, left]
            tried += m
    a0, b0, c0, a1, b1, c1 = cells
    gaps = gap_terms(
        SliceRates(config.p0, config.r0, a0, b0, c0),
        SliceRates(config.p1, config.r1, a1, b1, c1),
    )
    return gaps[4], tries, None


def _points(configs, seeds, n_trials, names):
    """Run ``n_trials`` trials at each point and yield ``(k, errors, attempts)`` as
    point k completes: its errors in trial order and the attempts they consumed.

    Trial i of point k reads only ``derive_trial_stream(seeds[k], i)`` and
    runs under ``configs[k]``; the configs differ in their budgets alone. The
    (point, trial) pairs form one sequence, point by point, that runs through
    ``_block_errors`` ``_BLOCK`` at a time, so a block can hold the end of one
    point and the start of the next, and short points share rejection passes.
    One errors array is refilled for each point in turn, valid until the next
    point is asked for, so memory does not grow with the number of points.
    The first trial in (point, trial) order that runs out of its rejection
    budget raises :class:`RejectionBudgetExhausted` naming its index and
    ``names[k]``.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    offsets = np.arange(len(configs), dtype=np.uint64) * _U64(n_trials)
    # an unconstrained config's absent budgets become NaN, which no trial reads
    budgets = np.array([(config.eps_b1, config.eps_b2) for config in configs], dtype=float).T
    errors = np.empty(n_trials)
    total, attempts = len(configs) * n_trials, 0
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        # the block holds a run of each point from ``first`` on, between ``cuts``;
        # a run is keyed by repeating its point's seed, offset and budgets over it
        first = start // n_trials
        cuts = [start, *range((first + 1) * n_trials, stop, n_trials), stop]
        runs = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        points = slice(first, first + len(runs))
        trials = np.arange(start, stop, dtype=np.uint64) - np.repeat(offsets[points], runs)
        keys = _trial_key(np.repeat(seeds[points], runs), trials)
        budget = np.repeat(budgets[:, points], runs, axis=1)
        block, tries, exhausted = _block_errors(configs[0], *keys, budget)
        if exhausted is not None:
            k, i = divmod(start + exhausted, n_trials)
            raise RejectionBudgetExhausted(configs[0].max_rejections, i, names[k])
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]), first):
            errors[lo - k * n_trials:hi - k * n_trials] = block[lo - start:hi - start]
            attempts += int(tries[lo - start:hi - start].sum())
            if hi == (k + 1) * n_trials:
                yield k, errors, attempts
                attempts = 0


def run_monte_carlo(
    config: SamplerConfig,
    n_trials: int,
    seed: int,
    bins: int = 50,
) -> SimulationResult:
    """Run ``n_trials`` independent trials and aggregate the error distribution.

    The run is the one-point case of the engine that ``sweep`` drives
    (``_points``): trials run in one process, ``_BLOCK`` at a time, and no
    Philox block of a trial is computed twice. The result keeps the engine's
    errors array. The rejection rate is the fraction of constrained attempts
    discarded (0.0 for unconstrained runs). When a trial exhausts its
    rejection budget, the error names the earliest such trial. At most
    ``MAX_TRIALS`` trials run and at most ``MAX_BINS`` bins are counted,
    both checked before anything is allocated.
    """
    _require_instance(config, "config", SamplerConfig)
    seed = _require_u64(seed, "seed")
    n_trials = _require_count(n_trials, "n_trials", MAX_TRIALS)
    bins = _require_count(bins, "bins", MAX_BINS)

    ((_, errors, attempts),) = _points([config], [seed], n_trials, [None])
    return SimulationResult(
        n_trials=n_trials,
        errors=errors,
        p95=percentile(errors, 0.95),
        histogram=_histogram(errors, bins),
        bounds=config_bounds(config),
        rejection_rate=(attempts - n_trials) / attempts,
        seed=seed,
    )


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Summary of one grid point of a sweep."""

    grid_value: Unit
    p95: float
    bound_a: NonNegative
    bound_combined_stated: NonNegative
    bound_combined_proof: NonNegative

    __post_init__ = _check_fields


def sweep(
    base: SamplerConfig,
    varied: str,
    grid,
    n_trials: int,
    seed: int,
) -> tuple[SweepPoint, ...]:
    """Rerun the constrained study at each grid value of one eps budget: one
    ``SweepPoint`` per grid value, in grid order.

    Grid point k runs with master seed ``derive_point_seed(seed, k)``, so
    points are mutually independent yet the whole sweep is reproducible from
    the single master seed. Each point's p95 and bounds equal those of
    ``run_monte_carlo`` at its value and seed, and both run the same engine
    loop, ``_points``, of which a run is the one-point case. A sweep's
    points are its points: their trials form one sequence, point by point,
    that runs ``_BLOCK`` at a time, each trial with its own point's stream
    and budgets. A block can thus hold the end of one point and the start of
    the next, and short points share rejection passes. One errors array is
    refilled for each point in turn, so memory does not grow with the grid.
    A trial that runs out of its rejection budget raises
    :class:`RejectionBudgetExhausted` naming its trial and grid value, the
    first such trial in (point, trial) order.
    ``n_trials`` is checked before anything is allocated.
    """
    _require_instance(base, "base", SamplerConfig)
    if varied not in ("eps_b1", "eps_b2"):
        raise ValidationError(f"varied must be eps_b1 or eps_b2, got {varied!r}")
    if base.mode != "constrained":
        raise ValidationError("sweep requires a constrained base config")
    grid = [_require_real(x, "grid values", 0.0, 1.0) for x in _require_real_array(grid, "grid")]
    if not grid:
        raise ValidationError("grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("grid values must be strictly increasing")
    seed = _require_u64(seed, "seed")
    n_trials = _require_count(n_trials, "n_trials", MAX_TRIALS)

    configs = [replace(base, **{varied: value}) for value in grid]
    seeds = [derive_point_seed(seed, k) for k in range(len(grid))]
    points = []
    for k, errors, _ in _points(configs, seeds, n_trials, [f"{varied} = {x!r}" for x in grid]):
        bounds = config_bounds(configs[k])
        points.append(SweepPoint(
            grid_value=grid[k],
            p95=percentile(errors, 0.95),
            bound_a=bounds.bound_A,
            bound_combined_stated=bounds.bound_combined_stated,
            bound_combined_proof=bounds.bound_combined_proof,
        ))
    return tuple(points)
