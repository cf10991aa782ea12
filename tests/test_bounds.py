import numpy as np
import pytest

from gap_gauge import (
    BoundReport,
    FullJoint,
    ReducedModel,
    SliceParams,
    StructureParams,
    ValidationError,
    ZeroMassCondition,
    bound_report,
    bound_report_from_params,
    classifier_structure_params,
    compute_gaps,
    consistent_marginals,
    expand,
    independence_diagnostics,
    structure_params,
)
from conftest import random_reduced
from oracles import conditional_prob, gaps_from_joint


def brute_force_translation(model: ReducedModel, step: float = 1e-4):
    """Scan shifts g over a grid; the best worst-case residual is the oracle
    for the closed-form translation fit."""
    diffs = np.array(
        [
            model.slice1.a - model.slice0.a,
            model.slice1.b - model.slice0.b,
            model.slice1.c - model.slice0.c,
        ]
    )
    grid = np.arange(-1.0, 1.0 + step / 2, step)
    worst = np.abs(diffs[None, :] - grid[:, None]).max(axis=1)
    k = int(np.argmin(worst))
    return grid[k], worst[k]


class TestStructureParams:
    def test_m1_values_by_hand(self, m1):
        params = structure_params(m1)
        assert params.gamma_A == pytest.approx(0.1, abs=1e-15)
        assert params.gamma_B1 == pytest.approx(0.05, abs=1e-15)
        assert params.gamma_B2 == pytest.approx(0.02, abs=1e-12)
        assert params.eps_B1 == pytest.approx(0.2, abs=1e-12)
        assert params.eps_B2 == pytest.approx(0.0, abs=1e-12)
        assert params.g_star == pytest.approx(0.2, abs=1e-12)

    def test_validation_ranges(self):
        with pytest.raises(ValidationError, match="gamma_A"):
            StructureParams(
                gamma_A=1.5, gamma_B1=0.0, gamma_B2=0.0,
                eps_B1=0.0, eps_B2=0.0, g_star=0.0,
            )
        with pytest.raises(ValidationError, match="g_star"):
            StructureParams(
                gamma_A=0.5, gamma_B1=0.0, gamma_B2=0.0,
                eps_B1=0.0, eps_B2=0.0, g_star=1.5,
            )

    def test_gamma_orderings(self):
        # both gammas are differences of rates that each sit in [0, gamma_A],
        # so they are bounded by gamma_A (and trivially by 2 gamma_A)
        rng = np.random.default_rng(3)
        for _ in range(500):
            params = structure_params(random_reduced(rng))
            assert params.gamma_B1 <= params.gamma_A + 1e-12
            assert params.gamma_B2 <= params.gamma_A + 1e-12
            assert params.gamma_B1 <= 2 * params.gamma_A + 1e-12

    def test_minimax_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            model = random_reduced(rng)
            params = structure_params(model)
            g_brute, eps_brute = brute_force_translation(model)
            assert params.eps_B2 <= eps_brute + 1e-12
            assert abs(params.eps_B2 - eps_brute) <= 1e-4
            assert abs(params.g_star - g_brute) <= 1e-4 + 1e-12

    def test_identical_slices_need_no_translation(self):
        shared = SliceParams(p=0.2, r=0.3, a=0.4, b=0.5, c=0.6)
        params = structure_params(ReducedModel(slice0=shared, slice1=shared))
        assert params.eps_B2 == pytest.approx(0.0, abs=1e-15)
        assert params.g_star == pytest.approx(0.0, abs=1e-15)
        assert params.gamma_B2 == pytest.approx(0.0, abs=1e-15)

    def test_classifier_constructor(self):
        params = classifier_structure_params(
            p0=0.05, r0=0.1, p1=0.07, r1=0.09, eps_b1=0.2, eps_b2=0.2
        )
        assert params.gamma_A == pytest.approx(0.1, abs=1e-15)
        assert params.gamma_B1 == pytest.approx(0.05, abs=1e-15)
        assert params.gamma_B2 == pytest.approx(0.02, abs=1e-12)
        assert params.eps_B1 == 0.2
        assert params.eps_B2 == 0.2

    def test_classifier_constructor_defaults_are_vacuous(self):
        params = classifier_structure_params(p0=0.05, r0=0.1, p1=0.07, r1=0.09)
        assert params.eps_B1 == 1.0
        assert params.eps_B2 == 1.0
        assert params.g_star == 0.0


class TestBoundFormulas:
    def test_m1_bound_values_by_hand(self, m1):
        report = bound_report_from_params(structure_params(m1))
        assert report.bound_A == pytest.approx(0.2, abs=1e-15)
        assert report.bound_B1 == pytest.approx(0.5, abs=1e-12)
        assert report.bound_B2 == pytest.approx(0.04, abs=1e-12)
        assert report.bound_combined_stated == pytest.approx(0.05, abs=1e-12)
        assert report.bound_combined_proof == pytest.approx(0.044, abs=1e-12)

    def test_m1_report_best(self, m1):
        report = bound_report(m1)
        assert report.best == pytest.approx(0.04, abs=1e-12)
        assert report.best == min(
            report.bound_A,
            report.bound_B1,
            report.bound_B2,
            report.bound_combined_proof,
        )

    def test_best_is_min_of_the_four_sound_bounds(self):
        # the stated variant can undershoot the error, so best leaves it out
        # even where it is the smallest of the five
        rng = np.random.default_rng(23)
        below = 0
        for _ in range(200):
            report = bound_report(random_reduced(rng))
            assert report.best == min(
                report.bound_A,
                report.bound_B1,
                report.bound_B2,
                report.bound_combined_proof,
            )
            below += report.bound_combined_stated < report.best
        assert below > 0

    def test_report_rejects_stated_value_as_best(self):
        with pytest.raises(ValidationError, match="four sound bounds"):
            BoundReport(
                bound_A=0.5, bound_B1=0.5, bound_B2=0.5,
                bound_combined_stated=0.1, bound_combined_proof=0.3, best=0.1,
            )

    def test_stated_variant_can_undershoot_error(self):
        # both slices share cells, p = r within each slice, so gamma_B1 = 0
        # and eps_B2 = 0 drive the stated expression to 0 while the slices'
        # deltas differ
        model = ReducedModel(
            slice0=SliceParams(p=0.5, r=0.5, a=0.5, b=0.9, c=0.1),
            slice1=SliceParams(p=0.2, r=0.2, a=0.5, b=0.9, c=0.1),
        )
        bounds = bound_report_from_params(structure_params(model))
        gap = compute_gaps(model)
        assert gap.error == pytest.approx(0.24, abs=1e-12)
        assert bounds.bound_combined_stated == pytest.approx(0.0, abs=1e-12)
        assert bounds.bound_combined_proof >= gap.error - 1e-12
        # best counts only the sound bounds: here the proof bound, which
        # equals the error
        report = bound_report(model)
        assert report.bound_combined_stated == pytest.approx(0.0, abs=1e-12)
        assert report.best == report.bound_combined_proof
        assert report.best == pytest.approx(0.24, abs=1e-12)

    def test_soundness_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            model = random_reduced(rng)
            gap = compute_gaps(model)
            report = bound_report_from_params(structure_params(model))
            for value in (
                report.bound_A,
                report.bound_B1,
                report.bound_B2,
                report.bound_combined_proof,
            ):
                assert gap.error <= value + 1e-12

    def test_bounds_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            report = bound_report_from_params(structure_params(random_reduced(rng)))
            assert report.bound_A >= 0
            assert report.bound_B1 >= 0
            assert report.bound_B2 >= 0
            assert report.bound_combined_proof >= 0
            assert report.bound_combined_stated >= 0

    def test_perfect_proxy_collapses_bound_A(self):
        model = ReducedModel(
            slice0=SliceParams(p=0.0, r=0.0, a=0.3, b=0.9, c=0.1),
            slice1=SliceParams(p=0.0, r=0.0, a=0.8, b=0.2, c=0.5),
        )
        report = bound_report(model)
        assert report.bound_A == 0.0
        assert report.best == 0.0


class TestIndependenceDiagnostics:
    @staticmethod
    def build_joint(slice_cells):
        """slice_cells[l] = (a, b, c, d) outcome rates; uniform (l, v, vhat)."""
        cells = np.zeros(16)
        for l, (a, b, c, d) in enumerate(slice_cells):
            rates = {(1, 1): a, (1, 0): b, (0, 1): c, (0, 0): d}
            for (v, vhat), rate in rates.items():
                base = 8 * l + 4 * v + 2 * vhat
                cells[base + 1] = 0.125 * rate
                cells[base] = 0.125 * (1.0 - rate)
        return FullJoint(cells=cells)

    def test_full_independence(self):
        joint = self.build_joint([(0.3, 0.3, 0.3, 0.3), (0.7, 0.7, 0.7, 0.7)])
        diag = independence_diagnostics(joint)
        assert diag.case1_holds and diag.case2_holds and diag.case3_holds
        assert diag.case1_deviation <= 1e-12
        assert diag.gap_error <= 1e-12

    def test_conditional_on_v_only(self):
        # y independent of vhat given (l, v): b = a, d = c per slice
        joint = self.build_joint([(0.4, 0.4, 0.1, 0.1), (0.8, 0.8, 0.3, 0.3)])
        diag = independence_diagnostics(joint)
        assert not diag.case1_holds
        assert diag.case2_holds and not diag.case3_holds
        # proxy contamination alone drives the error: 2 * max(p0, p1)
        assert diag.bound_case2 == pytest.approx(
            2 * 0.5, abs=1e-12
        )  # uniform marginals give p = 0.5
        assert diag.gap_error <= diag.bound_case2 + 1e-12
        assert diag.bound_case3 is None

    def test_conditional_on_vhat_only(self):
        # y independent of v given (l, vhat): c = a, d = b per slice
        joint = self.build_joint([(0.4, 0.1, 0.4, 0.1), (0.8, 0.3, 0.8, 0.3)])
        diag = independence_diagnostics(joint)
        assert not diag.case1_holds
        assert diag.case3_holds and not diag.case2_holds
        assert diag.bound_case3 == pytest.approx(2 * 0.5, abs=1e-12)
        assert diag.gap_error <= diag.bound_case3 + 1e-12
        assert diag.bound_case2 is None

    def test_no_case_holds(self, m1_joint):
        diag = independence_diagnostics(m1_joint)
        assert not (diag.case1_holds or diag.case2_holds or diag.case3_holds)
        assert diag.bound_case2 is None and diag.bound_case3 is None
        assert diag.gap_error == pytest.approx(0.001, abs=1e-12)

    def test_tolerance_widens_acceptance(self, m1_with_d):
        # nudge a nearly-case-2 model: b differs from a by 0.001
        model = ReducedModel(
            slice0=SliceParams(p=0.1, r=0.1, a=0.4, b=0.401, c=0.1, d=0.1),
            slice1=SliceParams(p=0.1, r=0.1, a=0.8, b=0.8, c=0.3, d=0.3),
        )
        joint = expand(model, consistent_marginals(model))
        strict = independence_diagnostics(joint, tol=1e-9)
        loose = independence_diagnostics(joint, tol=0.01)
        assert not strict.case2_holds
        assert loose.case2_holds

    def test_rejects_bad_tolerance(self, m1_joint):
        with pytest.raises(ValidationError, match="tol"):
            independence_diagnostics(m1_joint, tol=-1e-3)
        with pytest.raises(ValidationError, match="tol"):
            independence_diagnostics(m1_joint, tol=1.5)

    def test_zero_mass_propagates(self):
        cells = np.zeros(16)
        cells[0b0111] = 0.25
        cells[0b0000] = 0.25
        cells[0b1111] = 0.25
        cells[0b1000] = 0.25
        with pytest.raises(ZeroMassCondition):
            independence_diagnostics(FullJoint(cells=cells))

    def test_zero_mass_names_first_empty_event(self):
        cells = np.zeros(16)
        cells[[0b0000, 0b0111, 0b1000, 0b1111]] = 0.25
        with pytest.raises(ZeroMassCondition) as err:
            independence_diagnostics(FullJoint(cells=cells))
        assert str(err.value) == "conditioning event has zero mass: l=0, v=0, vhat=1"

    @staticmethod
    def query_diagnostics(joint, tol):
        """The diagnostics by ``conditional_prob`` and ``gaps_from_joint``, as hex strings.

        Raises :class:`ZeroMassCondition` on the first empty (v, vhat, l) event.
        """
        def rate(**given):
            return conditional_prob(joint, {"y": 1}, given)

        fine = {
            (v, vhat, l): rate(v=v, vhat=vhat, l=l)
            for v in (0, 1) for vhat in (0, 1) for l in (0, 1)
        }
        dev1 = max(abs(q - rate(l=l)) for (_, _, l), q in fine.items())
        dev2 = max(abs(q - rate(v=v, l=l)) for (v, _, l), q in fine.items())
        dev3 = max(abs(q - rate(vhat=vhat, l=l)) for (_, vhat, l), q in fine.items())
        p = max(conditional_prob(joint, {"v": 0}, {"vhat": 1, "l": l}) for l in (0, 1))
        r = max(conditional_prob(joint, {"vhat": 0}, {"v": 1, "l": l}) for l in (0, 1))
        return [
            tol.hex(), dev1.hex(), dev2.hex(), dev3.hex(), dev1 <= tol, dev2 <= tol, dev3 <= tol,
            (2.0 * p).hex() if dev2 <= tol else None, (2.0 * r).hex() if dev3 <= tol else None,
            gaps_from_joint(joint).error.hex(),
        ]

    @pytest.mark.parametrize("seed", range(20))
    def test_case_bounds_are_the_query_rates(self, seed):
        # every field bit for bit, -0.0 cells and empty events included;
        # tol = 1 makes every case hold, so both bounds are reported
        rng = np.random.default_rng(seed)
        for i in range(40):
            cells = rng.dirichlet(np.full(16, (0.2, 1.0, 5.0)[i % 3]))
            if i % 2:
                cells[rng.random(16) < 0.15] = -0.0 if i % 4 == 1 else 0.0
                cells[cells.argmax()] += 1.0 - cells.sum()
            joint = FullJoint(cells=cells)
            for tol in (1e-9, 0.05, 1.0):
                try:
                    want = self.query_diagnostics(joint, tol)
                except ZeroMassCondition as empty:
                    with pytest.raises(ZeroMassCondition) as raised:
                        independence_diagnostics(joint, tol=tol)
                    assert str(raised.value) == str(empty)
                    continue
                diag = independence_diagnostics(joint, tol=tol)
                got = [getattr(diag, name) for name in diag.__slots__]
                assert [x.hex() if type(x) is float else x for x in got] == want
