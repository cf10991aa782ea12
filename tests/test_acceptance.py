"""Acceptance gate: ten numbered end-to-end checks at pinned tolerances.

Each test evaluates its full criterion, records a one-line verdict (echoed
in the terminal summary), and only then asserts. Documented findings that
are expected rather than failures (the stated combined-bound variant can
undershoot; one reference threshold is not reproducible) are recorded as
extra FINDING lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from gap_gauge import (
    ReducedModel,
    SamplerConfig,
    SliceParams,
    bound_report_from_params,
    compute_gaps,
    config_bounds,
    consistent_marginals,
    estimate,
    expand,
    run_monte_carlo,
    sample_dataset,
    structure_params,
    sweep,
)
from gap_gauge import empirical
from gap_gauge.bounds import bound_terms, closeness_terms, gamma_terms
from gap_gauge.files import write_json
from gap_gauge.model import SliceRates, gap_terms

from conftest import M1_WITH_D, record_criterion
from oracles import gaps_from_joint

CLASSIFIER = dict(p0=0.05, r0=0.1, p1=0.07, r1=0.09)


def _models(rows: np.ndarray):
    for row in rows.tolist():
        yield ReducedModel(
            slice0=SliceParams(p=row[0], r=row[1], a=row[2], b=row[3], c=row[4]),
            slice1=SliceParams(p=row[5], r=row[6], a=row[7], b=row[8], c=row[9]),
        )


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def test_criterion_01_gap_identity():
    # the models are evaluated a block at a time on the array path; the first
    # block also goes through compute_gaps on ReducedModels, which must agree
    # to the bit
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    worst_delta = 0.0
    for done in range(0, 100_000, 20_000):
        rows = rng.random((20_000, 10))
        slices = SliceRates(*rows.T[:5]), SliceRates(*rows.T[5:])
        g, g_hat, delta0, delta1, error = gap_terms(*slices)
        if done == 0:
            scalar = [
                (gap.G, gap.G_hat, gap.delta0, gap.delta1, gap.error)
                for gap in map(compute_gaps, _models(rows))
            ]
            assert (_bits(scalar) == _bits([g, g_hat, delta0, delta1, error]).T).all()
        worst_gap = max(worst_gap, float(np.abs(error - abs(delta1 - delta0)).max()))
        # against a slice whose outcome rates are all 0, G and G_hat are the
        # other slice's Pr[y=1 | v=1] and Pr[y=1 | vhat=1]
        zero = SliceRates(0.0, 0.0, 0.0, 0.0, 0.0)
        for params in slices:
            rate_v1, rate_vhat1, _, delta, _ = gap_terms(zero, params)
            worst_delta = max(worst_delta, float(np.abs(delta - (rate_v1 - rate_vhat1)).max()))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-12 and worst_delta <= 1e-12 and elapsed < 10.0
    record_criterion(
        f"CRITERION 1: {'PASS' if ok else 'FAIL'} - gap identity over 1e5 models: "
        f"max |error - |d1-d0|| = {worst_gap:.2e}, "
        f"max delta mismatch = {worst_delta:.2e}, {elapsed:.1f}s"
    )
    assert worst_gap <= 1e-12
    assert worst_delta <= 1e-12
    assert elapsed < 10.0


def test_criterion_02_bound_soundness():
    # the models are evaluated a block at a time on the array path; the first
    # block also goes through the scalar dataclass path, which must agree to
    # the bit
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    violations = 0
    stated_violations = 0
    worst_excess = 0.0
    for done in range(0, 1_000_000, 20_000):
        rows = rng.random((20_000, 10))
        s0, s1 = SliceRates(*rows.T[:5]), SliceRates(*rows.T[5:])
        _, _, delta0, delta1, _ = gap_terms(s0, s1)
        error = abs(delta1 - delta0)
        eps_b1, eps_b2, _ = closeness_terms(s0.a, s0.b, s0.c, s1.a, s1.b, s1.c)
        a, b1, b2, stated, proof, _ = bound_terms(
            *gamma_terms(s0.p, s0.r, s1.p, s1.r), eps_b1, eps_b2
        )
        sound = np.minimum.reduce([a, b1, b2, proof])
        if done == 0:
            scalar = []
            for model in _models(rows):
                gap = compute_gaps(model)
                report = bound_report_from_params(structure_params(model))
                scalar.append((
                    abs(gap.delta1 - gap.delta0),
                    report.bound_combined_stated,
                    min(report.bound_A, report.bound_B1, report.bound_B2,
                        report.bound_combined_proof),
                ))
            assert (_bits(scalar) == _bits([error, stated, sound]).T).all()
        excess = error - sound
        exceeded = excess > 1e-12
        violations += int(exceeded.sum())
        worst_excess = max(worst_excess, float(excess[exceeded].max(initial=0.0)))
        stated_violations += int((error - stated > 1e-12).sum())
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    record_criterion(
        f"CRITERION 2: {'PASS' if ok else 'FAIL'} - soundness over 1e6 models: "
        f"{violations} violations of A/B1/B2/proof (worst excess {worst_excess:.2e}), "
        f"{elapsed:.1f}s"
    )
    record_criterion(
        f"  FINDING - stated combined-bound variant undershot the true error on "
        f"{stated_violations} of 1e6 models (expected; it is excluded from the "
        f"soundness guarantee)"
    )
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_03_independence_special_cases():
    rng = np.random.default_rng(303)
    worst_case1 = 0.0
    worst_case2 = -1.0
    worst_case3 = -1.0
    for _ in range(10_000):
        p0, r0, a0, p1, r1, a1 = rng.random(6)
        # all three metric cells equal per slice: the gaps must coincide
        same = ReducedModel(
            slice0=SliceParams(p=p0, r=r0, a=a0, b=a0, c=a0),
            slice1=SliceParams(p=p1, r=r1, a=a1, b=a1, c=a1),
        )
        worst_case1 = max(worst_case1, compute_gaps(same).error)
    for _ in range(10_000):
        p0, r0, a0, c0, p1, r1, a1, c1 = rng.random(8)
        # b = a per slice: only proxy contamination moves the measured gap
        contaminated = ReducedModel(
            slice0=SliceParams(p=p0, r=r0, a=a0, b=a0, c=c0),
            slice1=SliceParams(p=p1, r=r1, a=a1, b=a1, c=c1),
        )
        margin = 2.0 * max(p0, p1) - compute_gaps(contaminated).error
        worst_case2 = max(worst_case2, -margin)
    for _ in range(10_000):
        p0, r0, a0, b0, p1, r1, a1, b1 = rng.random(8)
        # c = a per slice: only recall loss moves the measured gap
        lossy = ReducedModel(
            slice0=SliceParams(p=p0, r=r0, a=a0, b=b0, c=a0),
            slice1=SliceParams(p=p1, r=r1, a=a1, b=b1, c=a1),
        )
        margin = 2.0 * max(r0, r1) - compute_gaps(lossy).error
        worst_case3 = max(worst_case3, -margin)
    ok = worst_case1 <= 1e-10 and worst_case2 <= 1e-12 and worst_case3 <= 1e-12
    record_criterion(
        f"CRITERION 3: {'PASS' if ok else 'FAIL'} - special cases, 1e4 each: "
        f"a=b=c max error {worst_case1:.2e}; b=a excess over 2max(p) "
        f"{worst_case2:.2e}; c=a excess over 2max(r) {worst_case3:.2e}"
    )
    assert worst_case1 <= 1e-10
    assert worst_case2 <= 1e-12
    assert worst_case3 <= 1e-12


def test_criterion_04_uniform_rate_study():
    start = time.perf_counter()
    details = []
    outcomes = []
    for gamma in (0.05, 0.1, 0.2):
        config = SamplerConfig(
            p0=gamma, r0=gamma, p1=gamma, r1=gamma, mode="unconstrained"
        )
        result = run_monte_carlo(config, n_trials=100_000, seed=42)
        max_error = float(result.errors.max())
        ratio = result.p95 / (2.0 * gamma)
        outcomes.append((max_error <= 2.0 * gamma, 0.45 <= ratio <= 0.65))
        details.append(f"gamma={gamma}: max={max_error:.4f}, p95/(2g)={ratio:.3f}")
    elapsed = time.perf_counter() - start
    ok = all(a and b for a, b in outcomes) and elapsed < 30.0
    record_criterion(
        f"CRITERION 4: {'PASS' if ok else 'FAIL'} - uniform-rate study "
        f"(N=1e5, seed 42): {'; '.join(details)}; {elapsed:.1f}s"
    )
    for bounded, in_band in outcomes:
        assert bounded
        assert in_band
    assert elapsed < 30.0


def test_criterion_05_constrained_study_orderings():
    config = SamplerConfig(
        **CLASSIFIER, mode="constrained", eps_b1=0.2, eps_b2=0.2
    )
    bounds = config_bounds(config)
    result = run_monte_carlo(config, n_trials=100_000, seed=42)
    values_ok = (
        abs(bounds.bound_combined_stated - 0.10) <= 1e-12
        and abs(bounds.bound_A - 0.2) <= 1e-12
        and abs(bounds.bound_B1 - 0.5) <= 1e-12
        and abs(bounds.bound_B2 - 0.64) <= 1e-12
        and abs(bounds.bound_combined_proof - 0.094) <= 1e-12
    )
    ordering_ok = (
        bounds.bound_combined_stated < bounds.bound_A < bounds.bound_B1 < bounds.bound_B2
    )
    p95_ok = result.p95 < bounds.bound_combined_proof
    ok = values_ok and ordering_ok and p95_ok
    record_criterion(
        f"CRITERION 5: {'PASS' if ok else 'FAIL'} - constrained study "
        f"(eps=0.2/0.2, N=1e5, seed 42): stated 0.10 < A 0.2 < B1 0.5 < B2 0.64 "
        f"{'verified' if values_ok and ordering_ok else 'VIOLATED'}; "
        f"p95 {result.p95:.4f} < proof 0.094 {'holds' if p95_ok else 'FAILS'}"
    )
    assert values_ok
    assert ordering_ok
    assert p95_ok


def test_criterion_06_eps_sweeps():
    base = SamplerConfig(**CLASSIFIER, mode="constrained", eps_b1=0.2, eps_b2=0.2)
    grid = [round(0.1 * k, 12) for k in range(11)]
    details = []
    formula_ok = True
    band_ok = True
    drops_by_axis = {}
    for varied in ("eps_b2", "eps_b1"):
        points = sweep(base, varied, grid, n_trials=20_000, seed=42)
        for point in points:
            eps_b2 = point.grid_value if varied == "eps_b2" else 0.2
            eps_b1 = point.grid_value if varied == "eps_b1" else 0.2
            expected = 2 * 0.02 + eps_b2 * 0.25 + eps_b1 * 0.05
            if abs(point.bound_combined_stated - expected) > 1e-12:
                formula_ok = False
        p95s = [point.p95 for point in points]
        drops_by_axis[varied] = sum(
            1 for lo, hi in zip(p95s, p95s[1:]) if hi < lo
        )
        at_02 = p95s[2]
        if not 0.015 <= at_02 <= 0.04:
            band_ok = False
        details.append(
            f"{varied}: p95@0.2={at_02:.4f}, adjacent drops={drops_by_axis[varied]}"
        )
    # the nondecreasing expectation is asserted on the eps_b2 axis, where the
    # reference claims (threshold, p95 band) live; the eps_b1 axis has no
    # underlying increase to detect (see FINDING below)
    mono_ok = drops_by_axis["eps_b2"] <= 1
    ok = formula_ok and mono_ok and band_ok
    record_criterion(
        f"CRITERION 6: {'PASS' if ok else 'FAIL'} - eps sweeps (0:1:0.1, N=2e4, "
        f"seed 42): stated column matches 0.04 + 0.25*eps_b2 + 0.05*eps_b1 "
        f"{'exactly' if formula_ok else 'MISMATCH'}; {'; '.join(details)}"
    )
    record_criterion(
        "  FINDING - stated bound <= 0.1 holds iff eps_b2 <= 0.2 under the "
        "implemented formula; the reference threshold of 0.4 is not "
        "reproducible from these parameters"
    )
    record_criterion(
        "  FINDING - p95 is not monotone in eps_b1: the underlying curve is "
        "flat with a small hump (peak-to-end range ~0.0003 at N=2e5), so the "
        "nondecreasing expectation is only meaningful for the eps_b2 axis"
    )
    assert formula_ok
    assert mono_ok
    assert band_ok


def test_criterion_07_minimax_matches_brute_force():
    rng = np.random.default_rng(707)
    grid = np.linspace(-1.0, 1.0, 20_001)
    worst_eps = 0.0
    worst_g = 0.0
    for _ in range(100):
        diffs = np.empty((100, 3))
        models = []
        for i, row in enumerate(rng.random((100, 10)).tolist()):
            model = ReducedModel(
                slice0=SliceParams(p=row[0], r=row[1], a=row[2], b=row[3], c=row[4]),
                slice1=SliceParams(p=row[5], r=row[6], a=row[7], b=row[8], c=row[9]),
            )
            models.append(model)
            diffs[i] = (
                model.slice1.a - model.slice0.a,
                model.slice1.b - model.slice0.b,
                model.slice1.c - model.slice0.c,
            )
        worst = np.abs(diffs[:, 0:1] - grid[None, :])
        np.maximum(worst, np.abs(diffs[:, 1:2] - grid[None, :]), out=worst)
        np.maximum(worst, np.abs(diffs[:, 2:3] - grid[None, :]), out=worst)
        idx = worst.argmin(axis=1)
        brute_eps = worst[np.arange(100), idx]
        brute_g = grid[idx]
        for model, eps_b, g_b in zip(models, brute_eps, brute_g):
            params = structure_params(model)
            worst_eps = max(worst_eps, abs(params.eps_B2 - float(eps_b)))
            worst_g = max(worst_g, abs(params.g_star - float(g_b)))
    ok = worst_eps <= 1e-4 and worst_g <= 1e-4
    record_criterion(
        f"CRITERION 7: {'PASS' if ok else 'FAIL'} - minimax vs brute force "
        f"(1e4 models, grid step 1e-4): max |eps_B2| gap {worst_eps:.2e}, "
        f"max |g*| gap {worst_g:.2e}"
    )
    assert worst_eps <= 1e-4
    assert worst_g <= 1e-4


def test_criterion_08_joint_path_equivalence():
    rng = np.random.default_rng(808)
    worst = 0.0
    worst_cross = 0.0
    pairs = 0
    while pairs < 1000:
        u = rng.random(12)
        model = ReducedModel(
            slice0=SliceParams(
                p=0.05 + 0.85 * u[0], r=0.05 + 0.85 * u[1],
                a=u[2], b=u[3], c=u[4], d=u[5],
            ),
            slice1=SliceParams(
                p=0.05 + 0.85 * u[6], r=0.05 + 0.85 * u[7],
                a=u[8], b=u[9], c=u[10], d=u[11],
            ),
        )
        direct = compute_gaps(model)
        reports = []
        for pr_l1, frac in ((0.3, 0.5), (0.7, 0.85)):
            pr_v1 = []
            for params in model.slices():
                cap = (1.0 - params.p) / (
                    (1.0 - params.p) + params.p * (1.0 - params.r)
                )
                pr_v1.append(frac * cap)
            joint = expand(
                model, consistent_marginals(model, pr_l1=pr_l1, pr_v1=tuple(pr_v1))
            )
            via_joint = gaps_from_joint(joint)
            reports.append(via_joint)
            pairs += 1
            for field in ("G", "G_hat", "delta0", "delta1", "error"):
                worst = max(
                    worst, abs(getattr(via_joint, field) - getattr(direct, field))
                )
        for field in ("G", "G_hat", "delta0", "delta1", "error"):
            worst_cross = max(
                worst_cross,
                abs(getattr(reports[0], field) - getattr(reports[1], field)),
            )
    ok = worst <= 1e-10 and worst_cross <= 1e-10
    record_criterion(
        f"CRITERION 8: {'PASS' if ok else 'FAIL'} - reduced vs joint-query path "
        f"(1e3 model/marginal pairs, 2 marginals per model): max deviation "
        f"{worst:.2e}, max cross-marginal deviation {worst_cross:.2e}"
    )
    assert worst <= 1e-10
    assert worst_cross <= 1e-10


def test_criterion_09_empirical_convergence():
    start = time.perf_counter()
    joint = expand(M1_WITH_D, consistent_marginals(M1_WITH_D))
    ns = [1_000, 10_000, 100_000, 1_000_000]
    seeds = list(range(900, 908))
    rms = []
    final_errors = []
    for n in ns:
        sq = []
        for seed in seeds:
            report = estimate(sample_dataset(joint, n, seed))
            err = abs(report.g_hat - 0.202)
            sq.append(err * err)
            if n == 1_000_000:
                final_errors.append(err)
        rms.append(float(np.sqrt(np.mean(sq))))
    slope = float(np.polyfit(np.log10(ns), np.log10(rms), 1)[0])
    elapsed = time.perf_counter() - start
    slope_ok = -0.65 <= slope <= -0.35
    final_ok = max(final_errors) < 0.01
    ok = slope_ok and final_ok and elapsed < 60.0
    record_criterion(
        f"CRITERION 9: {'PASS' if ok else 'FAIL'} - empirical convergence "
        f"(n=1e3..1e6, 8 seeds): slope {slope:.3f} in [-0.65, -0.35]; "
        f"max |G_hat - 0.202| at n=1e6 is {max(final_errors):.4f} < 0.01; "
        f"{elapsed:.1f}s"
    )
    assert slope_ok
    assert final_ok
    assert elapsed < 60.0


def test_criterion_10_cli_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    write_json(
        config_path,
        {**CLASSIFIER, "mode": "constrained", "eps_b1": 0.2, "eps_b2": 0.2},
    )
    # rows enough for three bootstrap draw chunks, the last one partial
    records = sample_dataset(
        expand(M1_WITH_D, consistent_marginals(M1_WITH_D)), 2 * empirical._CHUNK + 1, seed=10
    )
    records_path = tmp_path / "records.csv"
    rows = zip(records.l, records.v, records.vhat, records.y)
    records_path.write_text("l,v,vhat,y\n" + "".join(f"{l},{v},{vh},{y}\n" for l, v, vh, y in rows))

    def run_once(tag: str, workers: int) -> dict[str, bytes]:
        prefix = tmp_path / tag
        common = ["--seed", "42", "--workers", str(workers)]
        cmds = [
            ["simulate", str(config_path), "--trials", "12000", "--out", str(prefix), *common],
            ["estimate", str(records_path), "--bootstrap", "30",
             "--out", str(tmp_path / (tag + ".estimate.json")), *common],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "gap_gauge", *cmd], capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
        return {
            suffix: (tmp_path / (tag + suffix)).read_bytes()
            for suffix in (".summary.json", ".errors.csv", ".hist.csv", ".estimate.json")
        }

    baseline = run_once("w1a", workers=1)
    rerun = run_once("w1b", workers=1)
    w4 = run_once("w4", workers=4)
    w8 = run_once("w8", workers=8)
    rerun_ok = baseline == rerun
    workers_ok = baseline == w4 == w8
    ok = rerun_ok and workers_ok
    record_criterion(
        f"CRITERION 10: {'PASS' if ok else 'FAIL'} - simulate and estimate --bootstrap outputs "
        f"byte-identical across reruns ({'yes' if rerun_ok else 'NO'}) and "
        f"across workers 1/4/8 ({'yes' if workers_ok else 'NO'})"
    )
    assert rerun_ok
    assert workers_ok
