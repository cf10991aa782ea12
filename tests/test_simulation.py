import hashlib
import itertools
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gap_gauge import (
    EmptySample,
    Histogram,
    RejectionBudgetExhausted,
    SamplerConfig,
    SweepPoint,
    ValidationError,
    compute_gaps,
    config_bounds,
    derive_point_seed,
    derive_trial_stream,
    percentile,
    run_monte_carlo,
    sample_constrained,
    sample_unconstrained,
    simulation,
    structure_params,
    sweep,
)
from gap_gauge.files import dumps_json, load_sampler_config, result_dict
from gap_gauge.simulation import _accepted, _constrained_cells, _philox4x64, _trial_key
from oracles import constrained_acceptance, constrained_attempt, constrained_trial

CLASSIFIER = dict(p0=0.05, r0=0.1, p1=0.07, r1=0.09)


def unconstrained(**kwargs):
    merged = {**CLASSIFIER, "mode": "unconstrained", **kwargs}
    return SamplerConfig(**merged)


def constrained(eps_b1=0.2, eps_b2=0.2, **kwargs):
    merged = {
        **CLASSIFIER,
        "mode": "constrained",
        "eps_b1": eps_b1,
        "eps_b2": eps_b2,
        **kwargs,
    }
    return SamplerConfig(**merged)


class TestStreams:
    def test_same_key_same_draws(self):
        a = derive_trial_stream(42, 7).random(5)
        b = derive_trial_stream(42, 7).random(5)
        assert np.array_equal(a, b)

    def test_distinct_trials_distinct_draws(self):
        a = derive_trial_stream(42, 0).random(5)
        b = derive_trial_stream(42, 1).random(5)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_distinct_draws(self):
        a = derive_trial_stream(42, 0).random(5)
        b = derive_trial_stream(43, 0).random(5)
        assert not np.array_equal(a, b)

    def test_seed_range_enforced(self):
        with pytest.raises(ValidationError, match="seed"):
            derive_trial_stream(-1, 0)
        with pytest.raises(ValidationError, match="seed"):
            derive_trial_stream(2**64, 0)
        derive_trial_stream(2**64 - 1, 0)

    def test_trial_index_range_enforced(self):
        # _mix64 keeps 64 bits, so 2**64 would silently alias trial 0
        with pytest.raises(ValidationError, match="trial_index"):
            derive_trial_stream(7, 2**64)
        with pytest.raises(ValidationError, match="trial_index"):
            derive_trial_stream(7, -1)
        with pytest.raises(ValidationError, match="trial_index"):
            derive_trial_stream(7, True)
        last = derive_trial_stream(7, 2**64 - 1).random(3)
        assert not np.array_equal(last, derive_trial_stream(7, 0).random(3))

    def test_point_index_range_enforced(self):
        # int() of 2.7 is 2, and _mix64 keeps 64 bits, so each would alias another point
        for index in (2.7, -1, True, 2**64, np.float64(2.0)):
            with pytest.raises(ValidationError, match="^index must be"):
                derive_point_seed(1, index)
        assert derive_point_seed(1, np.uint64(2**64 - 1)) == derive_point_seed(1, 2**64 - 1)
        with pytest.raises(ValidationError, match="^seed must be"):
            derive_point_seed(-1, 0)

    def test_point_seed_in_range_and_deterministic(self):
        seen = set()
        for k in range(16):
            derived = derive_point_seed(42, k)
            assert 0 <= derived < 2**64
            assert derived == derive_point_seed(42, k)
            seen.add(derived)
        assert len(seen) == 16


def textbook_splitmix64(state: int) -> int:
    """splitmix64 (Steele, Lea and Flood, OOPSLA 2014) with explicit reductions."""
    z = (state + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def textbook_trial_key(seed: int, index: int) -> tuple[int, int]:
    """The seeding contract: lo = mix(seed, index), hi = splitmix(lo)."""
    lo = textbook_splitmix64(seed ^ textbook_splitmix64((index + 0x9E3779B97F4A7C15) % 2**64))
    return lo, textbook_splitmix64(lo)


_EXTREMES = [0, 1, 2**63, 2**64 - 1]
_KEY_PAIRS = list(itertools.product(_EXTREMES, repeat=2)) + np.random.default_rng(2024).integers(
    0, 2**64, size=(64, 2), dtype=np.uint64
).tolist()


class TestSeedingContract:
    """Trial keys and point seeds, pinned apart from the code that derives them."""

    def test_trial_key_of_ints_is_textbook_splitmix64(self):
        for seed, index in _KEY_PAIRS:
            assert _trial_key(seed, index) == textbook_trial_key(seed, index), (seed, index)

    def test_trial_key_of_arrays_is_textbook_splitmix64(self):
        indices = [index for _, index in _KEY_PAIRS]
        for seed in sorted({seed for seed, _ in _KEY_PAIRS}):
            lo, hi = _trial_key(seed, np.array(indices, dtype=np.uint64))
            assert lo.dtype == hi.dtype == np.uint64
            want = [textbook_trial_key(seed, index) for index in indices]
            assert list(zip(lo.tolist(), hi.tolist())) == want, seed

    def test_point_seeds_pinned(self):
        assert derive_point_seed(42, 0) == 0x7C247ADEFCC8B7D8
        assert derive_point_seed(0, 2**64 - 1) == 0x7F46A57C92DBEE5F

    def test_trial_stream_key_pinned(self):
        key = derive_trial_stream(42, 0).bit_generator.state["state"]["key"]
        assert tuple(int(word) for word in key) == (0x7C247ADEFCC8B7D8, 0xB7DEC772A06527AC)


_WORD = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestPhiloxKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_WORD, _WORD), min_size=1, max_size=8))
    def test_matches_numpy_philox(self, keys):
        # all-ones and zero key words drive the carries of the 32-bit-limb
        # multiply-high; the first two counters give the first eight words
        k0 = np.array([lo for lo, _ in keys], dtype=np.uint64)
        k1 = np.array([hi for _, hi in keys], dtype=np.uint64)
        counters = np.array([[1], [2]], dtype=np.uint64)
        words = np.stack(_philox4x64(counters, k0, k1), axis=1).reshape(8, -1)
        for j, (lo, hi) in enumerate(keys):
            expected = np.random.Philox(key=(hi << 64) | lo).random_raw(8)
            assert words[:, j].tolist() == expected.tolist()


class TestSamplerConfig:
    def test_eps_required_iff_constrained(self):
        with pytest.raises(ValidationError, match="eps"):
            SamplerConfig(**CLASSIFIER, mode="constrained")
        with pytest.raises(ValidationError, match="eps"):
            SamplerConfig(**CLASSIFIER, mode="unconstrained", eps_b1=0.2)
        unconstrained()
        constrained()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError, match="mode"):
            SamplerConfig(**CLASSIFIER, mode="adaptive")

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError, match="p0"):
            unconstrained(p0=1.2)

    def test_rejects_bad_budget(self):
        for budget in (0, True):
            with pytest.raises(ValidationError) as err:
                constrained(max_rejections=budget)
            assert str(err.value) == f"max_rejections must be a positive integer, got {budget!r}"


class TestUnconstrainedSampler:
    def test_deterministic_replay(self):
        one = sample_unconstrained(unconstrained(), derive_trial_stream(1, 2))
        two = sample_unconstrained(unconstrained(), derive_trial_stream(1, 2))
        assert one == two

    def test_rates_are_fixed_cells_vary(self):
        config = unconstrained()
        model = sample_unconstrained(config, derive_trial_stream(3, 4))
        assert model.slice0.p == config.p0 and model.slice0.r == config.r0
        assert model.slice1.p == config.p1 and model.slice1.r == config.r1
        other = sample_unconstrained(config, derive_trial_stream(3, 5))
        assert model.slice0.a != other.slice0.a

    def test_error_bounded_by_2_gamma(self):
        config = unconstrained(p0=0.1, r0=0.1, p1=0.1, r1=0.1)
        for i in range(500):
            model = sample_unconstrained(config, derive_trial_stream(9, i))
            assert compute_gaps(model).error <= 0.2 + 1e-12

    def test_matches_direct_draw_order(self):
        # six uniforms in slice order: a0, b0, c0, a1, b1, c1
        stream = derive_trial_stream(11, 0)
        expected = stream.random(6)
        model = sample_unconstrained(unconstrained(), derive_trial_stream(11, 0))
        got = (
            model.slice0.a, model.slice0.b, model.slice0.c,
            model.slice1.a, model.slice1.b, model.slice1.c,
        )
        assert np.allclose(got, expected, atol=0)


class TestConstrainedSampler:
    def test_attempt_residuals_respect_budgets(self):
        for i in range(300):
            u = derive_trial_stream(13, i).random(7)
            g = 2.0 * u[0] - 1.0  # the shift, as Generator.uniform(-1, 1) draws it
            a0, b0, c0, a1, b1, c1 = _constrained_cells(u, eps_b1=0.2, eps_b2=0.1)
            assert -1.0 <= g <= 1.0
            assert abs(c0 - b0) <= 0.2 + 1e-12
            for x0, x1 in ((a0, a1), (b0, b1), (c0, c1)):
                assert abs(x1 - x0 - g) <= 0.1 + 1e-12

    @pytest.mark.parametrize(
        "eps_b1, eps_b2", [(0.2, 0.2), (0.0, 0.0), (1.0, 1.0), (0.013, 0.677), (5e-5, 5e-5)]
    )
    def test_cells_match_oracle_attempt_by_attempt(self, eps_b1, eps_b2):
        # the one array map over seven doubles equals the uniform-by-uniform
        # draw, three consecutive attempts of each stream
        for seed in (0, 7, 2**64 - 1):
            for i in range(200):
                stream, oracle = derive_trial_stream(seed, i), derive_trial_stream(seed, i)
                for _ in range(3):
                    cells = _constrained_cells(stream.random(7), eps_b1, eps_b2)
                    expected = constrained_attempt(oracle, eps_b1, eps_b2)
                    assert [float(x).hex() for x in cells] == [x.hex() for x in expected]

    def test_rejects_an_unconstrained_config(self):
        with pytest.raises(ValidationError) as err:
            sample_constrained(unconstrained(), derive_trial_stream(1, 0))
        assert str(err.value) == "sample_constrained needs a constrained config"

    @pytest.mark.parametrize("eps", [0.0, 0.2, 1.0])
    def test_consumes_seven_doubles_per_attempt(self, eps):
        # the engine reads attempt k + 1 at doubles 7k .. 7k+6
        config = constrained(eps_b1=eps, eps_b2=eps)
        for i in range(300):
            stream = derive_trial_stream(25, i)
            _, attempts = sample_constrained(config, stream)
            after = derive_trial_stream(25, i).random(7 * attempts + 1)[-1]
            assert stream.random() == after

    def test_accepted_models_in_range(self):
        config = constrained()
        for i in range(200):
            model, attempts = sample_constrained(config, derive_trial_stream(15, i))
            assert attempts >= 1
            for params in model.slices():
                for field in ("a", "b", "c"):
                    assert 0.0 <= getattr(params, field) <= 1.0

    def test_accepted_models_respect_eps(self):
        # the construction pins |c0 - b0| <= eps_b1 on slice 0; slice 1 adds
        # two independent jitters, so the tight two-slice spread can reach
        # eps_b1 + 2 eps_b2.  The translation misfit stays within eps_b2.
        config = constrained(eps_b1=0.15, eps_b2=0.05)
        for i in range(200):
            model, _ = sample_constrained(config, derive_trial_stream(17, i))
            params = structure_params(model)
            assert abs(model.slice0.c - model.slice0.b) <= 0.15 + 1e-12
            assert params.eps_B1 <= 0.15 + 2 * 0.05 + 1e-12
            assert params.eps_B2 <= 0.05 + 1e-12

    def test_zero_eps_collapses_to_exact_translation(self):
        config = constrained(eps_b1=0.0, eps_b2=0.0)
        for i in range(100):
            model, attempts = sample_constrained(config, derive_trial_stream(19, i))
            assert attempts == 1
            s0, s1 = model.slices()
            assert s0.c == pytest.approx(s0.b, abs=1e-15)
            g = s1.a - s0.a
            assert s1.b - s0.b == pytest.approx(g, abs=1e-12)
            assert s1.c - s0.c == pytest.approx(g, abs=1e-12)

    def test_rejection_budget_exhausted(self):
        config = constrained(eps_b1=1.0, eps_b2=1.0, max_rejections=1)
        exhausted = 0
        for i in range(50):
            try:
                sample_constrained(config, derive_trial_stream(21, i))
            except RejectionBudgetExhausted as err:
                assert err.max_rejections == 1
                exhausted += 1
        # wide jitter pushes cells outside [0, 1] often enough that a
        # one-attempt budget must fail somewhere in 50 streams
        assert exhausted > 0

    def test_acceptance_matches_vectorized_oracle(self):
        # reimplement one attempt with bulk numpy draws and compare the
        # acceptance rate; catches silent drift in the rejection predicate
        config = constrained(eps_b1=0.2, eps_b2=0.2)
        n = 4000
        accepted = 0
        for i in range(n):
            _, attempts = sample_constrained(config, derive_trial_stream(23, i))
            if attempts == 1:
                accepted += 1

        rng = np.random.default_rng(99)
        m = 200_000
        g = rng.uniform(-1.0, 1.0, size=m)
        span = 1.0 - np.abs(g)
        lo = np.where(g >= 0, 0.0, -g)
        a0 = lo + span * rng.random(m)
        b0 = lo + span * rng.random(m)
        c0 = b0 + rng.uniform(-0.2, 0.2, size=m)
        jitter = rng.uniform(-0.2, 0.2, size=(m, 3))
        x1 = np.stack([a0, b0, c0], axis=1) + g[:, None] + jitter
        ok = (
            (c0 >= 0.0) & (c0 <= 1.0)
            & (x1 >= 0.0).all(axis=1) & (x1 <= 1.0).all(axis=1)
        )
        oracle_rate = ok.mean()
        sample_rate = accepted / n
        # binomial noise at n=4000 is about 0.008; allow a generous margin
        assert abs(sample_rate - oracle_rate) < 0.03


#: Exact acceptance of one constrained attempt at (eps_b1, eps_b2), from a 3000 x 3000 grid
ACCEPTANCE = {
    (0.1, 0.1): 0.698975,
    (0.2, 0.2): 0.528645,
    (0.4, 0.4): 0.306537,
    (0.013, 0.677): 0.258174,
    (0.9, 0.3): 0.196731,
}

#: Largest |z| an observed acceptance may take against the exact value, fixed before any run
ACCEPTANCE_Z = 4.0

#: Four (eps_b1, eps_b2) pairs on [0.05, 1]^2, drawn once from a seed fixed before any run
RANDOM_BUDGETS = [
    tuple(pair) for pair in np.random.default_rng(2026).uniform(0.05, 1.0, (4, 2)).tolist()
]

#: ``rejection_rate`` and ``p95`` of each bundled graph2 study (``scripts/replicate.sh``:
#: 1e5 trials at seed 42), whose summary digest ``scripts/results.sha256`` pins
GRAPH2_SUMMARIES = {
    "010": (0.29991598991879026, 0.01960668269361443),
    "020": (0.4720252583116424, 0.02859678617004663),
    "040": (0.694301785277574, 0.04765878690182124),
}

ROOT = Path(__file__).resolve().parent.parent


def acceptance_z(rejection_rate: float, p: float, n: int) -> float:
    """z of an observed acceptance against the exact ``p``: n trials take n / p attempts, and
    n / attempts has standard error p sqrt((1 - p) / n)."""
    return (1.0 - rejection_rate - p) / (p * np.sqrt((1.0 - p) / n))


class TestConstrainedAcceptance:
    """The constrained draw's acceptance against its exact value, ``constrained_acceptance``."""

    def test_reference_values(self):
        for (eps_b1, eps_b2), value in ACCEPTANCE.items():
            assert abs(constrained_acceptance(eps_b1, eps_b2) - value) < 1e-5
        assert constrained_acceptance(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("eps_b1, eps_b2", sorted(ACCEPTANCE) + RANDOM_BUDGETS)
    def test_engine_acceptance(self, eps_b1, eps_b2):
        n = 200_000
        result = run_monte_carlo(constrained(eps_b1, eps_b2), n, seed=2024)
        pair = (eps_b1, eps_b2)
        p = ACCEPTANCE[pair] if pair in ACCEPTANCE else constrained_acceptance(*pair)
        assert abs(acceptance_z(result.rejection_rate, p, n)) < ACCEPTANCE_Z

    @pytest.mark.parametrize("eps", sorted(GRAPH2_SUMMARIES))
    def test_bundled_graph2_studies(self, eps):
        # the summary these values rebuild must be the pinned one, so no run is needed
        config = load_sampler_config(ROOT / "configs" / f"graph2_eps{eps}.json")
        rejection_rate, p95 = GRAPH2_SUMMARIES[eps]
        summary = {"bounds": result_dict(config_bounds(config)), "n_trials": 100_000,
                   "p95": p95, "rejection_rate": rejection_rate, "seed": 42}
        pinned = (ROOT / "scripts" / "results.sha256").read_text().splitlines()
        digest = hashlib.sha256(dumps_json(summary).encode()).hexdigest()
        assert f"{digest}  results/graph2_eps{eps}.summary.json" in pinned
        p = constrained_acceptance(config.eps_b1, config.eps_b2)
        assert abs(acceptance_z(rejection_rate, p, 100_000)) < ACCEPTANCE_Z

    @pytest.mark.parametrize("eps_b1, eps_b2", [(0.0, 0.3), (0.3, 0.0), (0.0, 1.0), (1.0, 1.0)])
    def test_map_acceptance_at_zero_and_full_budgets(self, eps_b1, eps_b2):
        m = 400_000
        doubles = np.random.default_rng(7).random((7, m))
        observed = _accepted(_constrained_cells(doubles, eps_b1, eps_b2)).mean()
        p = constrained_acceptance(eps_b1, eps_b2)
        assert abs(observed - p) < ACCEPTANCE_Z * np.sqrt(p * (1.0 - p) / m)


class TestPercentile:
    def test_median_of_four(self):
        assert percentile([0.1, 0.2, 0.3, 0.4], 0.5) == 0.2

    def test_p95_of_hundred(self):
        values = [i / 100 for i in range(1, 101)]
        assert percentile(values, 0.95) == 0.95

    def test_unsorted_input(self):
        assert percentile([0.4, 0.1, 0.3, 0.2], 0.5) == 0.2

    def test_extremes(self):
        values = [0.5, 0.1, 0.9]
        assert percentile(values, 1e-9) == 0.1
        assert percentile(values, 1.0) == 0.9

    def test_single_element(self):
        assert percentile([0.7], 0.95) == 0.7

    def test_float_dust_rank(self):
        # 0.95 * 100000 floats to 95000.000000000015; ceil must not bump
        # the rank to 95001
        values = list(range(100_000))
        assert percentile(values, 0.95) == 94_999  # rank 95000, 0-indexed

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            percentile([], 0.5)

    def test_bad_q(self):
        with pytest.raises(ValidationError, match="q"):
            percentile([0.1], 1.5)
        with pytest.raises(ValidationError, match="q"):
            percentile([0.1], 0.0)


class TestRunMonteCarlo:
    def test_deterministic(self):
        config = unconstrained()
        one = run_monte_carlo(config, n_trials=400, seed=42)
        two = run_monte_carlo(config, n_trials=400, seed=42)
        assert np.array_equal(one.errors, two.errors)
        assert one.p95 == two.p95
        assert one.histogram == two.histogram

    def test_results_differing_only_in_p95_are_unequal(self):
        result = run_monte_carlo(unconstrained(), n_trials=100, seed=1)
        other = replace(result, p95=np.nextafter(result.p95, 1.0))
        assert result == replace(result) and result != other

    def test_seed_changes_errors(self):
        config = unconstrained()
        one = run_monte_carlo(config, n_trials=100, seed=1)
        two = run_monte_carlo(config, n_trials=100, seed=2)
        assert not np.array_equal(one.errors, two.errors)

    def test_trial_order_is_by_index(self):
        config = unconstrained()
        result = run_monte_carlo(config, n_trials=50, seed=7)
        model = sample_unconstrained(config, derive_trial_stream(7, 31))
        assert result.errors[31] == compute_gaps(model).error

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("mode", ["unconstrained", "constrained"])
    def test_engine_matches_scalar_oracle(self, mode, seed):
        # one trial at a time, across a block boundary: the block engine must
        # reproduce every bit of the oracle's uniform-by-uniform draws, and
        # sample_constrained every error and attempt count
        config = constrained() if mode == "constrained" else unconstrained()
        n = simulation._BLOCK + 17
        expected = np.empty(n)
        attempts = 0
        for i in range(n):
            if mode == "constrained":
                error, tries = constrained_trial(config, derive_trial_stream(seed, i))
                model, sampled = sample_constrained(config, derive_trial_stream(seed, i))
                assert (compute_gaps(model).error, sampled) == (error, tries)
            else:
                model, tries = sample_unconstrained(config, derive_trial_stream(seed, i)), 1
                error = compute_gaps(model).error
            expected[i] = error
            attempts += tries
        result = run_monte_carlo(config, n_trials=n, seed=seed)
        assert result.errors.tobytes() == expected.tobytes()
        assert result.rejection_rate == (attempts - n) / attempts

    def test_rejects_more_than_max_trials_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("an array was allocated")

        monkeypatch.setattr(simulation.np, "empty", no_allocation)
        with pytest.raises(ValidationError, match=f"at most {simulation.MAX_TRIALS}"):
            run_monte_carlo(unconstrained(), n_trials=simulation.MAX_TRIALS + 1, seed=1)

    @pytest.mark.parametrize("bins", [simulation.MAX_BINS + 1, 10**20])
    def test_rejects_more_than_max_bins_before_any_trial(self, monkeypatch, bins):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(simulation, "_block_errors", no_trial)
        with pytest.raises(ValidationError) as err:
            run_monte_carlo(unconstrained(), n_trials=100, seed=1, bins=bins)
        assert str(err.value) == f"bins must be at most {simulation.MAX_BINS}, got {bins}"

    def test_max_bins_is_accepted(self):
        result = run_monte_carlo(unconstrained(), n_trials=10, seed=1, bins=simulation.MAX_BINS)
        assert sum(result.histogram.counts) == 10

    def test_histogram_accounts_for_every_trial(self):
        result = run_monte_carlo(unconstrained(), n_trials=250, seed=5, bins=20)
        hist = result.histogram
        assert len(hist.bin_edges) == 21  # no error above 1 at these rates
        assert sum(hist.counts) == 250
        assert hist.bin_edges[0] == 0.0
        assert hist.bin_edges[-1] == 1.0

    def test_histogram_overflow_bin(self):
        # rates of 1 make each slice delta equal b - c, so the two-slice
        # error regularly exceeds 1 and must land in the overflow bin
        config = unconstrained(p0=1.0, r0=1.0, p1=1.0, r1=1.0)
        result = run_monte_carlo(config, n_trials=400, seed=11, bins=10)
        hist = result.histogram
        assert len(hist.bin_edges) == 12
        assert hist.bin_edges[-1] == 2.0
        overflow = hist.counts[-1]
        assert overflow == sum(1 for e in result.errors if e > 1.0)
        assert overflow > 0
        assert sum(hist.counts) == 400

    def test_unconstrained_rejection_rate_zero(self):
        result = run_monte_carlo(unconstrained(), n_trials=100, seed=3)
        assert result.rejection_rate == 0.0

    def test_constrained_rejection_rate_positive(self):
        result = run_monte_carlo(constrained(), n_trials=500, seed=3)
        assert result.rejection_rate > 0.0
        assert result.rejection_rate < 1.0

    def test_bounds_echo_config(self):
        result = run_monte_carlo(constrained(), n_trials=50, seed=9)
        assert result.bounds == config_bounds(constrained())

    def test_exhaustion_reports_first_failing_trial(self):
        config = constrained(eps_b1=1.0, eps_b2=1.0, max_rejections=1)
        with pytest.raises(RejectionBudgetExhausted) as err:
            run_monte_carlo(config, n_trials=2000, seed=42)
        first = err.value.trial_index
        assert first is not None
        # every earlier trial must succeed under the same budget
        for i in range(first):
            sample_constrained(config, derive_trial_stream(42, i))
        with pytest.raises(RejectionBudgetExhausted):
            sample_constrained(config, derive_trial_stream(42, first))

    def test_exhaustion_beyond_first_block(self):
        # tiny budgets reject rarely: at seed 2 the first one-attempt failure
        # lies past the first block, which must finish without failing
        config = constrained(eps_b1=5e-5, eps_b2=5e-5, max_rejections=1)
        with pytest.raises(RejectionBudgetExhausted) as err:
            run_monte_carlo(config, n_trials=4 * simulation._BLOCK, seed=2)
        first = err.value.trial_index
        assert first is not None and first >= simulation._BLOCK
        for i in range(first):
            sample_constrained(config, derive_trial_stream(2, i))
        with pytest.raises(RejectionBudgetExhausted):
            sample_constrained(config, derive_trial_stream(2, first))

    def test_rejects_bad_trial_count(self):
        for count in (0, True):
            with pytest.raises(ValidationError) as err:
                run_monte_carlo(unconstrained(), n_trials=count, seed=1)
            assert str(err.value) == f"n_trials must be a positive integer, got {count!r}"
            with pytest.raises(ValidationError) as err:
                run_monte_carlo(unconstrained(), n_trials=10, seed=1, bins=count)
            assert str(err.value) == f"bins must be a positive integer, got {count!r}"


@pytest.fixture
def philox_lanes(monkeypatch):
    """Every (counter, k0, k1) lane the engine computes, one array per kernel call."""
    lanes = []
    kernel = simulation._philox4x64

    def recording(counter, k0, k1):
        lanes.append(np.stack([a.ravel() for a in np.broadcast_arrays(counter, k0, k1)], axis=1))
        return kernel(counter, k0, k1)

    monkeypatch.setattr(simulation, "_philox4x64", recording)
    return lanes


def assert_no_lane_repeats(lanes):
    table = np.concatenate(lanes)
    assert np.unique(table, axis=0).shape[0] == table.shape[0]


class TestBlockCarry:
    def test_no_block_computed_twice_in_a_run(self, philox_lanes):
        # graph3_base's budgets, across block boundaries
        result = run_monte_carlo(constrained(), n_trials=2 * simulation._BLOCK + 17, seed=43)
        assert result.rejection_rate > 0.0
        assert len(philox_lanes) > 2
        assert_no_lane_repeats(philox_lanes)

    @pytest.mark.parametrize("varied", ["eps_b1", "eps_b2"])
    def test_no_block_computed_twice_in_a_sweep(self, philox_lanes, varied):
        # 3,001 trials a point: every block but the first holds two points
        sweep(constrained(), varied, [k / 10 for k in range(11)], n_trials=3001, seed=42)
        assert_no_lane_repeats(philox_lanes)

    def test_graph3_base_lanes(self, philox_lanes):
        # the engine that recomputed straddled blocks and sized passes by the
        # pending count alone took 352,699 lanes here
        run_monte_carlo(constrained(), n_trials=50_000, seed=43)
        assert sum(lane.shape[0] for lane in philox_lanes) <= 0.75 * 352_699


class TestPoints:
    """The engine loop that both ``run_monte_carlo`` and ``sweep`` drive, point by point,
    against the scalar oracle."""

    @pytest.mark.parametrize("varied", ["eps_b1", "eps_b2"])
    def test_points_match_scalar_oracle(self, varied):
        # three points overrun one block: the first block holds the end of point 1
        # and the start of point 2, the second block the end of point 2
        n_trials = simulation._BLOCK // 3 + 1
        configs = [constrained(**{varied: value}) for value in (0.0, 0.1, 0.3)]
        seeds = [derive_point_seed(11, k) for k in range(3)]
        got = [
            (k, errors.copy(), attempts)
            for k, errors, attempts in simulation._points(configs, seeds, n_trials, [None] * 3)
        ]
        assert [k for k, _, _ in got] == [0, 1, 2]
        for k, errors, attempts in got:
            trials = [
                constrained_trial(configs[k], derive_trial_stream(seeds[k], i))
                for i in range(n_trials)
            ]
            assert errors.tobytes() == np.array([error for error, _ in trials]).tobytes(), k
            assert type(attempts) is int
            assert attempts == sum(tries for _, tries in trials), k

    def test_one_unconstrained_point_takes_one_attempt_a_trial(self):
        config, n_trials = unconstrained(), simulation._BLOCK + 17
        ((k, errors, attempts),) = simulation._points([config], [5], n_trials, [None])
        expected = [
            compute_gaps(sample_unconstrained(config, derive_trial_stream(5, i))).error
            for i in range(n_trials)
        ]
        assert (k, attempts) == (0, n_trials)
        assert errors.tobytes() == np.array(expected).tobytes()


class TestConfigBounds:
    def test_unconstrained_uses_vacuous_eps(self):
        report = config_bounds(unconstrained())
        assert report.bound_A == pytest.approx(0.2, abs=1e-15)
        assert report.bound_B1 == pytest.approx(2 * (0.05 + 1.0), abs=1e-12)
        assert report.bound_B2 == pytest.approx(2 * 0.02 + 3 * 1.0, abs=1e-12)
        assert report.best == pytest.approx(0.2, abs=1e-15)

    def test_constrained_matches_hand_values(self):
        report = config_bounds(constrained())
        assert report.bound_A == pytest.approx(0.2, abs=1e-15)
        assert report.bound_B1 == pytest.approx(0.5, abs=1e-12)
        assert report.bound_B2 == pytest.approx(0.64, abs=1e-12)
        assert report.bound_combined_stated == pytest.approx(0.10, abs=1e-12)
        assert report.bound_combined_proof == pytest.approx(0.094, abs=1e-12)


class TestSweep:
    def test_requires_constrained_base(self):
        with pytest.raises(ValidationError, match="constrained"):
            sweep(unconstrained(), "eps_b2", [0.0, 0.1], n_trials=10, seed=1)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValidationError, match="varied"):
            sweep(constrained(), "gamma", [0.0, 0.1], n_trials=10, seed=1)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValidationError, match="increasing"):
            sweep(constrained(), "eps_b2", [0.2, 0.1], n_trials=10, seed=1)

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValidationError, match="grid"):
            sweep(constrained(), "eps_b2", [0.0, 1.5], n_trials=10, seed=1)

    def test_rejects_more_than_max_trials_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("an array was allocated")

        monkeypatch.setattr(simulation.np, "empty", no_allocation)
        with pytest.raises(ValidationError, match=f"at most {simulation.MAX_TRIALS}"):
            sweep(constrained(), "eps_b2", [0.0, 0.1], n_trials=simulation.MAX_TRIALS + 1, seed=1)

    def test_point_metadata_and_determinism(self):
        grid = [0.0, 0.1, 0.2]
        one = sweep(constrained(), "eps_b2", grid, n_trials=200, seed=42)
        two = sweep(constrained(), "eps_b2", grid, n_trials=200, seed=42)
        assert one == two
        assert [p.grid_value for p in one] == grid

    def test_points_use_decoupled_seeds(self):
        # point k of a sweep along either axis is a direct run at grid value k
        # with the derived per-point seed, bit for bit, whether the engine's
        # blocks hold part of a point, one point or several
        base = constrained()
        cases = itertools.product(
            ("eps_b1", "eps_b2"),
            (1, 2000, 3001, simulation._BLOCK + 17),
            ([0.3], [0.0, 1.0], [k / 10 for k in range(11)]),
        )
        for varied, n_trials, grid in cases:
            points = sweep(base, varied, grid, n_trials=n_trials, seed=7)
            expected = []
            for k, value in enumerate(grid):
                direct = run_monte_carlo(
                    replace(base, **{varied: value}), n_trials, derive_point_seed(7, k)
                )
                bounds = direct.bounds
                expected.append(SweepPoint(
                    grid_value=value,
                    p95=direct.p95,
                    bound_a=bounds.bound_A,
                    bound_combined_stated=bounds.bound_combined_stated,
                    bound_combined_proof=bounds.bound_combined_proof,
                ))
            assert [[float.hex(v) for v in astuple(point)] for point in points] == [
                [float.hex(v) for v in astuple(point)] for point in expected
            ], (varied, n_trials, grid)

    @pytest.mark.parametrize("max_rejections, seed, point, trial", [
        # point 0 runs out at its trial 439, point 1 at its trial 0, in one block
        (5, 42, 0, 439),
        # point 0 completes and point 1 runs out at its trial 30, in the block
        # that holds all of point 0
        (20, 2, 1, 30),
    ])
    def test_exhaustion_in_a_block_spanning_points(self, max_rejections, seed, point, trial):
        config, grid, n_trials = constrained(max_rejections=max_rejections), [0.0, 1.0], 3000
        # the first block holds both points and the trial that runs out
        assert point * n_trials + trial < simulation._BLOCK < 2 * n_trials
        for k, value in enumerate(grid):
            try:
                run_monte_carlo(replace(config, eps_b2=value), n_trials, derive_point_seed(seed, k))
            except RejectionBudgetExhausted as err:
                assert (k, err.trial_index) == (point, trial)
                break
        else:
            pytest.fail("no point ran out of its budget")
        with pytest.raises(RejectionBudgetExhausted) as err:
            sweep(config, "eps_b2", grid, n_trials=n_trials, seed=seed)
        assert str(err.value) == (
            f"no valid sample after {max_rejections} attempts at trial {trial} "
            f"of eps_b2 = {grid[point]!r}"
        )
        assert (err.value.trial_index, err.value.point) == (trial, f"eps_b2 = {grid[point]!r}")

    def test_memory_does_not_grow_with_the_grid(self):
        # one errors array is refilled point by point, so eleven points peak
        # within one point's errors array of two. A block's temporaries peak
        # where acceptance is lowest, at eps_b2 = 1.0, so both grids hold it.
        n_trials = 20_000
        sweep(constrained(), "eps_b2", [0.0, 0.1], n_trials=50, seed=1)
        peaks = []
        for grid in ([0.9, 1.0], [k / 10 for k in range(11)]):
            tracemalloc.start()
            try:
                sweep(constrained(), "eps_b2", grid, n_trials=n_trials, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 8 * n_trials, peaks

    def test_bounds_columns_track_grid(self):
        for point in sweep(constrained(), "eps_b2", [0.0, 0.3], n_trials=50, seed=3):
            config = constrained(eps_b2=point.grid_value)
            report = config_bounds(config)
            assert point.bound_a == report.bound_A
            assert point.bound_combined_stated == report.bound_combined_stated
            assert point.bound_combined_proof == report.bound_combined_proof

    def test_exhaustion_names_the_grid_point(self):
        # at seed 42 point 0 (eps_b2 = 0.0) fills all 200 trials within five
        # attempts, and point 1 (eps_b2 = 1.0) runs out at its trial 0
        config, grid = constrained(max_rejections=5), [0.0, 1.0]
        assert len(sweep(config, "eps_b2", grid[:1], n_trials=200, seed=42)) == 1
        with pytest.raises(RejectionBudgetExhausted) as err:
            sweep(config, "eps_b2", grid, n_trials=200, seed=42)
        assert str(err.value) == "no valid sample after 5 attempts at trial 0 of eps_b2 = 1.0"
        assert (err.value.max_rejections, err.value.trial_index) == (5, 0)
        assert err.value.point == "eps_b2 = 1.0"
        # the same run outside a sweep keeps its message
        with pytest.raises(RejectionBudgetExhausted) as err:
            run_monte_carlo(replace(config, eps_b2=1.0), 200, derive_point_seed(42, 1))
        assert str(err.value) == "no valid sample after 5 attempts at trial 0"
        assert err.value.point is None


class TestHistogramType:
    def test_validates_monotone_edges(self):
        with pytest.raises(ValidationError, match="edges"):
            Histogram(bin_edges=(0.0, 0.5, 0.4, 1.0), counts=(1, 1, 1))

    def test_validates_length_relation(self):
        with pytest.raises(ValidationError, match="counts"):
            Histogram(bin_edges=(0.0, 0.5, 1.0), counts=(1, 1, 1))

    def test_validates_negative_counts(self):
        with pytest.raises(ValidationError, match="counts"):
            Histogram(bin_edges=(0.0, 0.5, 1.0), counts=(1, -1))
