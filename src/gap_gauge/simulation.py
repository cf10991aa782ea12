"""Seeded Monte Carlo studies of the gap measurement error.

Each trial draws a random reduced model for a fixed classifier (fixed per
slice error rates p and r), computes the exact measurement error, and the run
aggregates the error distribution against the theoretical bounds.

Reproducibility contract: trial i of a run with master seed s consumes the
dedicated stream ``derive_trial_stream(s, i)`` and nothing else, so results
are independent of execution order and identical runs are bit-identical.

``run_monte_carlo`` does not build those streams one by one. Philox is
counter-based, so double j of trial i is a pure function of (s, i, j): the
engine below takes a whole block's keys from ``_trial_key``, the function
that keys ``derive_trial_stream``, computes the doubles with numpy
array arithmetic, and repeats the float operations of the scalar samplers
in the same order. The errors come from :func:`model.gap_terms`, the one
gap formula that ``compute_gaps`` wraps, applied to whole arrays of trials.
So its results are bit-identical to running ``derive_trial_stream``,
``sample_*`` and ``compute_gaps`` per trial. Those scalar functions stay as
the reference the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundReport, bound_report_from_params, classifier_structure_params
from .errors import (
    EmptySample,
    RejectionBudgetExhausted,
    ValidationError,
)
from .model import (
    ReducedModel, SliceParams, SliceRates, _require_count, _require_real, _require_real_array,
    _require_u64, gap_terms,
)

__all__ = [
    "SamplerConfig",
    "Histogram",
    "SimulationResult",
    "SweepPoint",
    "SweepResult",
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

#: Trials per block of the vectorized engine. A block's temporaries are a few
#: dozen arrays of this length, so memory stays bounded whatever the trial
#: count; results never depend on it.
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
    engine of ``run_monte_carlo``. Distinct pairs yield distinct keys, and
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

    In constrained mode the outcome-rate draws respect the closeness budgets
    ``eps_b1`` (within-slice diagonal closeness) and ``eps_b2`` (across-slice
    translation residual); both are required then and must be absent in
    unconstrained mode. ``max_rejections`` caps the attempts per constrained
    trial.
    """

    p0: float
    r0: float
    p1: float
    r1: float
    mode: str
    eps_b1: float | None = None
    eps_b2: float | None = None
    max_rejections: int = 10000

    def __post_init__(self) -> None:
        for field in ("p0", "r0", "p1", "r1"):
            object.__setattr__(self, field, _require_real(getattr(self, field), field, 0.0, 1.0))
        if self.mode not in _MODES:
            raise ValidationError(
                f"mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.mode == "constrained":
            for field in ("eps_b1", "eps_b2"):
                value = getattr(self, field)
                if value is None:
                    raise ValidationError(f"constrained mode requires {field}")
                object.__setattr__(self, field, _require_real(value, field, 0.0, 1.0))
        else:
            for field in ("eps_b1", "eps_b2"):
                if getattr(self, field) is not None:
                    raise ValidationError(f"{field} only applies to constrained mode")
        object.__setattr__(
            self, "max_rejections", _require_count(self.max_rejections, "max_rejections")
        )


def sample_unconstrained(
    config: SamplerConfig, stream: np.random.Generator
) -> ReducedModel:
    """One trial model with outcome rates drawn independently uniform.

    Consumes exactly six uniforms in the order a0, b0, c0, a1, b1, c1.
    """
    a0, b0, c0, a1, b1, c1 = stream.random(6)
    return ReducedModel(
        slice0=SliceParams(p=config.p0, r=config.r0, a=a0, b=b0, c=c0),
        slice1=SliceParams(p=config.p1, r=config.r1, a=a1, b=b1, c=c1),
    )


def _constrained_attempt(
    stream: np.random.Generator, eps_b1: float, eps_b2: float
) -> tuple[float, tuple[float, float, float, float, float, float]]:
    """One constrained construction attempt; cells may land outside [0, 1].

    Draw order per attempt: the shift g uniform on [-1, 1]; a0 then b0
    uniform on the g-feasible range ([0, 1-g] for g >= 0, [-g, 1] otherwise);
    the diagonal residual for c0 uniform on [-eps_b1, eps_b1]; then the three
    translation residuals for a1, b1, c1 uniform on [-eps_b2, eps_b2] in one
    call, in that order.
    """
    g = stream.uniform(-1.0, 1.0)
    if g >= 0.0:
        lo, hi = 0.0, 1.0 - g
    else:
        lo, hi = -g, 1.0
    a0 = stream.uniform(lo, hi)
    b0 = stream.uniform(lo, hi)
    c0 = b0 + stream.uniform(-eps_b1, eps_b1)
    ea, eb, ec = stream.uniform(-eps_b2, eps_b2, size=3)
    return g, (a0, b0, c0, a0 + g + ea, b0 + g + eb, c0 + g + ec)


def sample_constrained(
    config: SamplerConfig, stream: np.random.Generator
) -> tuple[ReducedModel, int]:
    """One trial model respecting the closeness budgets, by rejection.

    Slice 0 rates are drawn in the shift-feasible range, slice 1 rates are
    the slice 0 rates translated by the shared shift plus independent
    residuals. Any cell outside [0, 1] discards the whole attempt; partial
    redraws would bias the accepted distribution. Returns the model and the
    number of attempts consumed (including the successful one). Raises
    :class:`RejectionBudgetExhausted` after ``max_rejections`` failed
    attempts.
    """
    if config.mode != "constrained":
        raise ValidationError("sample_constrained needs a constrained config")
    for attempt in range(1, config.max_rejections + 1):
        _, cells = _constrained_attempt(stream, config.eps_b1, config.eps_b2)
        if all(0.0 <= x <= 1.0 for x in cells):
            a0, b0, c0, a1, b1, c1 = cells
            model = ReducedModel(
                slice0=SliceParams(p=config.p0, r=config.r0, a=a0, b=b0, c=c0),
                slice1=SliceParams(p=config.p1, r=config.r1, a=a1, b=b1, c=c1),
            )
            return model, attempt
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
    ``counts`` always sums to the number of values.
    """

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        edges = tuple(_require_real_array(self.bin_edges, "bin_edges").tolist())
        object.__setattr__(self, "bin_edges", edges)
        if len(edges) != len(self.counts) + 1:
            raise ValidationError("histogram needs one more edge than counts")
        for lo, hi in zip(edges, edges[1:]):
            if not lo < hi:
                raise ValidationError("histogram edges must strictly increase")
        if any(c < 0 for c in self.counts):
            raise ValidationError("histogram counts must be >= 0")


def _histogram(errors: np.ndarray, bins: int) -> Histogram:
    # values beyond the last edge fall out of np.histogram's counts and are
    # collected into the overflow bin instead
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(errors, bins=edges)
    overflow = int((errors > 1.0).sum())
    if overflow:
        edges = np.append(edges, 2.0)
        counts = np.append(counts, overflow)
    return Histogram(bin_edges=edges, counts=tuple(counts.tolist()))


def config_bounds(config: SamplerConfig) -> BoundReport:
    """Bounds implied by the configured classifier and closeness budgets.

    Unconstrained runs place no closeness structure on the draws, so both
    eps budgets are the vacuous 1.0 there.
    """
    if config.mode == "constrained":
        eps_b1, eps_b2 = config.eps_b1, config.eps_b2
    else:
        eps_b1, eps_b2 = 1.0, 1.0
    params = classifier_structure_params(
        config.p0, config.r0, config.p1, config.r1, eps_b1=eps_b1, eps_b2=eps_b2
    )
    return bound_report_from_params(params)


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate of one Monte Carlo run; ``errors`` is in trial order."""

    n_trials: int
    errors: np.ndarray
    p95: float
    histogram: Histogram
    bounds: BoundReport
    rejection_rate: float
    seed: int

    def __post_init__(self) -> None:
        arr = _require_real_array(self.errors, "errors", flat=True)
        arr.setflags(write=False)
        object.__setattr__(self, "errors", arr)


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


def _stream_doubles(k0: np.ndarray, k1: np.ndarray, first: int, count: int) -> np.ndarray:
    """Doubles ``first .. first+count-1`` of each trial's stream, shape (count, n).

    ``np.random.Philox`` fills its buffer from counter 1 upwards, so double j
    is word ``j % 4`` of the block at counter ``j // 4 + 1``, turned into a
    double the way ``Generator.random`` does it: ``(word >> 11) * 2**-53``.
    """
    counters = np.arange(first // 4 + 1, (first + count - 1) // 4 + 2, dtype=np.uint64)
    words = np.stack(_philox4x64(counters[:, None], k0, k1), axis=1)
    words = words.reshape(-1, k0.size)[first % 4:first % 4 + count]
    return (words >> _U64(11)) * (1.0 / 9007199254740992.0)


def _uniform(low, high, u):
    """``Generator.uniform(low, high)`` given its double ``u``."""
    return low + (high - low) * u


def _constrained_cells(
    u: np.ndarray, eps_b1: float, eps_b2: float
) -> tuple[np.ndarray, ...]:
    """``_constrained_attempt`` over arrays, from its seven doubles ``u``."""
    g = _uniform(-1.0, 1.0, u[0])
    negative = g < 0.0
    lo = np.where(negative, -g, 0.0)
    hi = np.where(negative, 1.0, 1.0 - g)
    a0 = _uniform(lo, hi, u[1])
    b0 = _uniform(lo, hi, u[2])
    c0 = b0 + _uniform(-eps_b1, eps_b1, u[3])
    return (
        a0, b0, c0,
        a0 + g + _uniform(-eps_b2, eps_b2, u[4]),
        b0 + g + _uniform(-eps_b2, eps_b2, u[5]),
        c0 + g + _uniform(-eps_b2, eps_b2, u[6]),
    )


def _block_errors(
    config: SamplerConfig, seed: int, start: int, stop: int
) -> tuple[np.ndarray, int]:
    """Errors of trials [start, stop) and the attempts they consumed.

    Attempt k + 1 of ``sample_constrained`` reads doubles ``7k .. 7k+6`` of
    its trial's stream. Each rejection pass gives every pending trial the
    next m attempts at once and keeps the first that is accepted; m grows as
    trials leave, so a pass never covers more than about ``_BLOCK`` attempts
    and the last stragglers do not cost one pass per attempt.
    """
    k0, k1 = _trial_key(seed, np.arange(start, stop, dtype=np.uint64))
    if config.mode != "constrained":
        cells, attempts = _stream_doubles(k0, k1, 0, 6), stop - start
    else:
        cells = np.empty((6, stop - start))
        pending = np.arange(stop - start)
        attempts = tried = 0
        while pending.size:
            if tried == config.max_rejections:
                raise RejectionBudgetExhausted(
                    config.max_rejections, trial_index=start + int(pending[0])
                )
            m = min(max(1, _BLOCK // pending.size), config.max_rejections - tried)
            u = _stream_doubles(k0, k1, 7 * tried, 7 * m).reshape(m, 7, -1).swapaxes(0, 1)
            drawn = np.stack(_constrained_cells(u, config.eps_b1, config.eps_b2))
            ok = ((drawn >= 0.0) & (drawn <= 1.0)).all(axis=0)
            first, accepted = ok.argmax(axis=0), ok.any(axis=0)
            done = np.flatnonzero(accepted)
            cells[:, pending[done]] = drawn[:, first[done], done]
            attempts += int(np.where(accepted, first + 1, m).sum())
            left = ~accepted
            pending, k0, k1 = pending[left], k0[left], k1[left]
            tried += m
    a0, b0, c0, a1, b1, c1 = cells
    gaps = gap_terms(
        SliceRates(config.p0, config.r0, a0, b0, c0),
        SliceRates(config.p1, config.r1, a1, b1, c1),
    )
    return gaps[4], attempts


def run_monte_carlo(
    config: SamplerConfig,
    n_trials: int,
    seed: int,
    bins: int = 50,
) -> SimulationResult:
    """Run ``n_trials`` independent trials and aggregate the error distribution.

    Trials run in one process, ``_BLOCK`` at a time. The rejection rate is
    the fraction of constrained attempts discarded (0.0 for unconstrained
    runs). When a trial exhausts its rejection budget, the error names the
    earliest such trial. At most ``MAX_TRIALS`` trials run and at most
    ``MAX_BINS`` bins are counted, both checked before anything is allocated.
    """
    seed = _require_u64(seed, "seed")
    n_trials = _require_count(n_trials, "n_trials", MAX_TRIALS)
    bins = _require_count(bins, "bins", MAX_BINS)

    errors = np.empty(n_trials)
    attempts = 0
    for start in range(0, n_trials, _BLOCK):
        stop = min(start + _BLOCK, n_trials)
        errors[start:stop], tries = _block_errors(config, seed, start, stop)
        attempts += tries
    rejection_rate = (attempts - n_trials) / attempts
    return SimulationResult(
        n_trials=n_trials,
        errors=errors,
        p95=percentile(errors, 0.95),
        histogram=_histogram(errors, bins),
        bounds=config_bounds(config),
        rejection_rate=rejection_rate,
        seed=seed,
    )


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Summary of one grid point of a sweep."""

    grid_value: float
    p95: float
    bound_a: float
    bound_combined_stated: float
    bound_combined_proof: float


@dataclass(frozen=True)
class SweepResult:
    """p95 and bound trajectories along one closeness-budget grid."""

    varied: str
    fixed_value: float
    grid: tuple[float, ...]
    points: tuple[SweepPoint, ...]
    n_trials: int
    seed: int


def sweep(
    base: SamplerConfig,
    varied: str,
    grid,
    n_trials: int,
    seed: int,
) -> SweepResult:
    """Rerun the constrained study at each grid value of one eps budget.

    Grid point k runs with master seed ``derive_point_seed(seed, k)``, so
    points are mutually independent yet the whole sweep is reproducible from
    the single master seed.
    """
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

    points = []
    for k, value in enumerate(grid):
        config = replace(base, **{varied: value})
        result = run_monte_carlo(config, n_trials, derive_point_seed(seed, k))
        points.append(
            SweepPoint(
                grid_value=value,
                p95=result.p95,
                bound_a=result.bounds.bound_A,
                bound_combined_stated=result.bounds.bound_combined_stated,
                bound_combined_proof=result.bounds.bound_combined_proof,
            )
        )
    fixed = base.eps_b2 if varied == "eps_b1" else base.eps_b1
    return SweepResult(
        varied=varied,
        fixed_value=float(fixed),
        grid=tuple(grid),
        points=tuple(points),
        n_trials=int(n_trials),
        seed=seed,
    )
