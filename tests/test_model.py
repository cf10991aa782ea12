import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gap_gauge import (
    FullJoint,
    GapReport,
    InconsistentMarginals,
    MissingCell,
    ReducedModel,
    SliceMarginals,
    SliceParams,
    ValidationError,
    ZeroMassCondition,
    compute_gaps,
    consistent_marginals,
    expand,
    reduce,
)
from gap_gauge.model import gap_terms
from conftest import random_reduced
from oracles import conditional_prob, expand_cells, gaps_from_joint, implied_rates

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# bounded away from 0 and 1 so every (v, vhat) cell keeps positive mass
NARROW = st.floats(min_value=0.05, max_value=0.85, allow_nan=False)


@st.composite
def slice_params(draw, with_d: bool = False):
    return SliceParams(
        p=draw(UNIT),
        r=draw(UNIT),
        a=draw(UNIT),
        b=draw(UNIT),
        c=draw(UNIT),
        d=draw(UNIT) if with_d else None,
    )


@st.composite
def reduced_models(draw, with_d: bool = False):
    return ReducedModel(
        slice0=draw(slice_params(with_d)), slice1=draw(slice_params(with_d))
    )


@st.composite
def expandable_models(draw):
    """Models plus marginals guaranteed mutually consistent."""
    def one_slice():
        return SliceParams(
            p=draw(NARROW), r=draw(NARROW),
            a=draw(UNIT), b=draw(UNIT), c=draw(UNIT), d=draw(UNIT),
        )

    model = ReducedModel(slice0=one_slice(), slice1=one_slice())
    pr_l1 = draw(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
    fractions = (
        draw(st.floats(min_value=0.1, max_value=0.9, allow_nan=False)),
        draw(st.floats(min_value=0.1, max_value=0.9, allow_nan=False)),
    )
    pr_v1 = []
    for params, frac in zip(model.slices(), fractions):
        cap = (1.0 - params.p) / ((1.0 - params.p) + params.p * (1.0 - params.r))
        pr_v1.append(max(frac * cap, 1e-3))
    return model, consistent_marginals(model, pr_l1=pr_l1, pr_v1=tuple(pr_v1))


def uniform_joint() -> FullJoint:
    return FullJoint(cells=np.full(16, 1.0 / 16.0))


class TestFullJoint:
    def test_validates_cell_count(self):
        with pytest.raises(ValidationError, match="16 cells"):
            FullJoint(cells=np.full(8, 0.125))

    def test_rejects_negative_cell(self):
        cells = np.full(16, 1.0 / 16.0)
        cells[5] -= 0.2
        cells[6] += 0.2
        with pytest.raises(ValidationError, match="cell 5"):
            FullJoint(cells=cells)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            FullJoint(cells=np.full(16, 0.0625 + 1e-6))

    def test_accepts_sum_within_tolerance(self):
        cells = np.full(16, 1.0 / 16.0)
        cells[0] += 5e-10
        FullJoint(cells=cells)

    def test_cells_are_frozen(self):
        joint = uniform_joint()
        with pytest.raises(ValueError):
            joint.cells[0] = 0.5

    def test_compares_by_value_and_is_unhashable(self):
        joint = uniform_joint()
        assert joint == FullJoint(cells=joint.cells.copy())
        cells = joint.cells.copy()
        cells[0], cells[1] = 0.0, 0.125
        assert joint != FullJoint(cells=cells)
        assert joint != reduce(joint)
        with pytest.raises(TypeError):
            hash(joint)


class TestConditionalProb:
    def test_uniform_marginals(self):
        joint = uniform_joint()
        assert conditional_prob(joint, {"y": 1}, {}) == pytest.approx(0.5, abs=1e-15)
        assert conditional_prob(joint, {"y": 1}, {"v": 1, "l": 0}) == pytest.approx(
            0.5, abs=1e-15
        )
        assert conditional_prob(
            joint, {"v": 1, "vhat": 1}, {"l": 1}
        ) == pytest.approx(0.25, abs=1e-15)

    def test_point_mass(self):
        cells = np.zeros(16)
        cells[0b1111] = 1.0
        joint = FullJoint(cells=cells)
        assert conditional_prob(joint, {"y": 1}, {"l": 1}) == 1.0
        with pytest.raises(ZeroMassCondition, match="l=0"):
            conditional_prob(joint, {"y": 1}, {"l": 0})

    def test_zero_mass_names_event(self):
        cells = np.zeros(16)
        cells[0] = cells[8] = 0.5
        joint = FullJoint(cells=cells)
        with pytest.raises(ZeroMassCondition) as err:
            conditional_prob(joint, {"y": 1}, {"vhat": 1, "l": 0})
        assert "vhat=1" in str(err.value) and "l=0" in str(err.value)


class TestSliceParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="p"):
            SliceParams(p=1.2, r=0.1, a=0.5, b=0.5, c=0.5)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            SliceParams(p=float("nan"), r=0.1, a=0.5, b=0.5, c=0.5)

    def test_d_optional(self):
        params = SliceParams(p=0.1, r=0.1, a=0.5, b=0.5, c=0.5)
        assert params.d is None

    def test_d_validated_when_present(self):
        with pytest.raises(ValidationError, match="d"):
            SliceParams(p=0.1, r=0.1, a=0.5, b=0.5, c=0.5, d=-0.1)


class TestSliceMarginals:
    UNIFORM = (0.25, 0.25, 0.25, 0.25)

    @pytest.mark.parametrize("pr_l1, vvhat0, message", [
        (0.5, (0.5, 0.25, 0.25), "vvhat0 needs 4 entries, got 3"),
        (0.5, (0.6, -0.1, 0.25, 0.25), "vvhat0[1] must be >= 0, got -0.1"),
        (1.0, UNIFORM, "pr_l1 must lie in (0, 1), got 1.0"),
    ], ids=["3 entries", "negative entry", "pr_l1 1"])
    def test_rejects_bad_tables(self, pr_l1, vvhat0, message):
        with pytest.raises(ValidationError) as err:
            SliceMarginals(pr_l1=pr_l1, vvhat0=vvhat0, vvhat1=self.UNIFORM)
        assert str(err.value) == message

    def test_rejects_a_table_off_one(self):
        with pytest.raises(ValidationError) as err:
            SliceMarginals(pr_l1=0.5, vvhat0=(0.25, 0.25, 0.25, 0.2), vvhat1=self.UNIFORM)
        assert str(err.value) == "vvhat0 must sum to 1 within 1e-09, got 0.95"


class TestGapOps:
    def test_m1_outcome_rates_by_hand(self, m1_joint):
        def rate(given):
            return conditional_prob(m1_joint, {"y": 1}, given)

        # slice 0: 0.9 * 0.5 + 0.1 * 0.4 and 0.95 * 0.5 + 0.05 * 0.6
        assert rate({"v": 1, "l": 0}) == pytest.approx(0.49, abs=1e-15)
        assert rate({"vhat": 1, "l": 0}) == pytest.approx(0.505, abs=1e-15)
        # slice 1: 0.91 * 0.7 + 0.09 * 0.6 and 0.93 * 0.7 + 0.07 * 0.8
        assert rate({"v": 1, "l": 1}) == pytest.approx(0.691, abs=1e-15)
        assert rate({"vhat": 1, "l": 1}) == pytest.approx(0.707, abs=1e-15)

    def test_m1_gap_report_by_hand(self, m1):
        gap = compute_gaps(m1)
        assert gap.G == pytest.approx(0.201, abs=1e-12)
        assert gap.G_hat == pytest.approx(0.202, abs=1e-12)
        assert gap.delta0 == pytest.approx(-0.015, abs=1e-12)
        assert gap.delta1 == pytest.approx(-0.016, abs=1e-12)
        assert gap.error == pytest.approx(0.001, abs=1e-12)

    @given(slice_params())
    @settings(deadline=None)
    def test_delta_equals_rate_difference(self, params):
        # against a slice whose outcome rates are all 0, G and G_hat are the
        # other slice's Pr[y=1 | v=1] and Pr[y=1 | vhat=1]
        zero = SliceParams(p=0.0, r=0.0, a=0.0, b=0.0, c=0.0)
        via_rates, via_rates_hat, _, direct, _ = gap_terms(zero, params)
        assert abs(direct - (via_rates - via_rates_hat)) <= 1e-12

    @given(reduced_models())
    @settings(deadline=None)
    def test_error_equals_delta_difference(self, model):
        gap = compute_gaps(model)
        assert abs(gap.error - abs(gap.delta1 - gap.delta0)) <= 1e-12
        assert abs(gap.error - abs(gap.G - gap.G_hat)) <= 1e-12

    def test_perfect_proxy_gaps_coincide(self):
        # p = r = 0 makes the proxy-stratum rate equal the true-stratum rate
        model = ReducedModel(
            slice0=SliceParams(p=0.0, r=0.0, a=0.3, b=0.9, c=0.1),
            slice1=SliceParams(p=0.0, r=0.0, a=0.8, b=0.2, c=0.5),
        )
        gap = compute_gaps(model)
        assert gap.G == gap.G_hat
        assert gap.error == 0.0

    def test_gap_report_rejects_inconsistent_fields(self):
        with pytest.raises(ValidationError, match="error"):
            GapReport(G=0.2, G_hat=0.1, delta0=0.0, delta1=0.1, error=0.5)


class TestReduceExpand:
    def test_round_trip_recovers_m1(self, m1_with_d, m1_joint):
        back = reduce(m1_joint)
        for recovered, original in zip(back.slices(), m1_with_d.slices()):
            for field in ("p", "r", "a", "b", "c", "d"):
                assert getattr(recovered, field) == pytest.approx(
                    getattr(original, field), abs=1e-12
                )

    @given(expandable_models())
    @settings(deadline=None, max_examples=100)
    def test_round_trip_property(self, pair):
        model, marginals = pair
        joint = expand(model, marginals)
        back = reduce(joint)
        for recovered, original in zip(back.slices(), model.slices()):
            for field in ("p", "r", "a", "b", "c", "d"):
                assert getattr(recovered, field) == pytest.approx(
                    getattr(original, field), abs=1e-12
                )

    def test_expand_requires_d(self, m1):
        with pytest.raises(MissingCell, match="slice 0"):
            expand(m1, consistent_marginals(m1))

    def test_expand_rejects_marginals_for_other_model(self, m1_with_d):
        other = ReducedModel(
            slice0=SliceParams(p=0.3, r=0.3, a=0.5, b=0.5, c=0.5, d=0.5),
            slice1=SliceParams(p=0.3, r=0.3, a=0.5, b=0.5, c=0.5, d=0.5),
        )
        with pytest.raises(InconsistentMarginals) as err:
            expand(m1_with_d, consistent_marginals(other))
        assert str(err.value) == "slice 0: marginals imply p = 0.3, model has 0.05"

    def test_expand_rejects_marginals_without_vhat_1(self, m1_with_d):
        marginals = SliceMarginals(
            pr_l1=0.5,
            vvhat0=(0.5, 0.0, 0.5, 0.0),
            vvhat1=consistent_marginals(m1_with_d).vvhat1,
        )
        with pytest.raises(InconsistentMarginals) as err:
            expand(m1_with_d, marginals)
        assert str(err.value) == (
            "marginals give Pr[vhat=1 | l=0] = 0, so no precision is expressible"
        )

    def test_expand_rejects_degenerate_marginals(self, m1_with_d):
        # no (v=1, vhat=0) mass on slice 0 contradicts the model's r0 = 0.1
        marginals = SliceMarginals(
            pr_l1=0.5,
            vvhat0=(0.5, 0.1, 0.0, 0.4),
            vvhat1=consistent_marginals(m1_with_d).vvhat1,
        )
        with pytest.raises(InconsistentMarginals, match="slice 0"):
            expand(m1_with_d, marginals)

    # tables of (v, vhat) cells; one zero entry makes p = 0 (index 1) or r = 0 (index 2)
    @staticmethod
    def _table(rng, zero):
        raw = rng.random(4) + 1e-3
        if zero is not None:
            raw[zero] = 0.0
        return tuple((raw / raw.sum()).tolist())

    def test_expand_matches_the_cell_by_cell_oracle(self):
        rng = np.random.default_rng(2030)
        pr_l1s = (1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 2.0**-53)
        outcomes = (0.0, 1.0, None)  # None: drawn at random
        seen = set()
        for i in range(600):
            tables = [self._table(rng, (None, 0, 1, 2, 3)[(i + l) % 5]) for l in (0, 1)]
            slices = []
            for l, table in enumerate(tables):
                p, r = implied_rates(table, l)
                a, b, c, d = (
                    rng.random() if q is None else q
                    for q in (outcomes[(i // 5 + k) % 3] for k in range(4))
                )
                slices.append(SliceParams(p=p, r=r, a=a, b=b, c=c, d=d))
                seen.update(name for name, x in (("p", p), ("r", r)) if x == 0.0)
                seen.add(f"d={d}" if d in (0.0, 1.0) else "d random")
            pr_l1 = pr_l1s[i % 5] if i % 10 < 5 else float(rng.random())
            model = ReducedModel(slice0=slices[0], slice1=slices[1])
            marginals = SliceMarginals(pr_l1=pr_l1, vvhat0=tables[0], vvhat1=tables[1])
            got = [x.hex() for x in expand(model, marginals).cells.tolist()]
            assert got == [x.hex() for x in expand_cells(model, marginals).tolist()], i
        assert seen == {"p", "r", "d=0.0", "d=1.0", "d random"}

    @pytest.mark.parametrize(
        "vvhat0, p0, r0",
        [
            ((0.5, 0.0, 0.5, 0.0), 0.0, 0.0),  # no vhat=1 mass
            ((0.5, 0.5, 0.0, 0.0), 0.0, 0.0),  # no v=1 mass
            ((0.4, 0.1, 0.1, 0.4), 0.2 + 2e-9, 0.2),  # p just past the tolerance
            ((0.4, 0.1, 0.1, 0.4), 0.2, 0.2 - 2e-9),  # r just past the tolerance
            ((0.4, 0.1, 0.1, 0.4), 0.2 + 5e-10, 0.2 - 5e-10),  # both within it
        ],
        ids=["no-vhat1", "no-v1", "p-past-tol", "r-past-tol", "within-tol"],
    )
    def test_expand_refuses_as_the_oracle_does(self, vvhat0, p0, r0):
        model = ReducedModel(
            slice0=SliceParams(p=p0, r=r0, a=0.3, b=0.6, c=0.2, d=0.9),
            slice1=SliceParams(p=0.2, r=0.2, a=0.5, b=0.5, c=0.5, d=0.5),
        )
        marginals = SliceMarginals(pr_l1=0.5, vvhat0=vvhat0, vvhat1=(0.4, 0.1, 0.1, 0.4))
        try:
            want = [x.hex() for x in expand_cells(model, marginals).tolist()]
        except InconsistentMarginals as err:
            with pytest.raises(InconsistentMarginals) as got:
                expand(model, marginals)
            assert str(got.value) == str(err)
        else:
            assert [x.hex() for x in expand(model, marginals).cells.tolist()] == want

    def test_reduce_zero_mass_cell_is_hard_error(self):
        # all proxy mass agrees with v on slice 0, so the b cell is empty;
        # an imputed b would fabricate the structure parameters
        cells = np.zeros(16)
        cells[0b0110] = 0.2   # l=0, v=1, vhat=1, y=0
        cells[0b0010] = 0.2   # l=0, v=0, vhat=1, y=0
        cells[0b0000] = 0.1
        cells[0b1111] = 0.1
        cells[0b1101] = 0.1
        cells[0b1011] = 0.1
        cells[0b1000] = 0.2
        joint = FullJoint(cells=cells)
        with pytest.raises(ZeroMassCondition) as err:
            reduce(joint)
        assert "v=1" in str(err.value) and "vhat=0" in str(err.value)

    def test_reduce_zero_slice_mass(self):
        cells = np.zeros(16)
        cells[0b0111] = 0.3
        cells[0b0011] = 0.3
        cells[0b0100] = 0.4
        joint = FullJoint(cells=cells)
        with pytest.raises(ZeroMassCondition, match="l=1"):
            reduce(joint)

    def test_reduce_omits_d_when_cell_empty(self, m1_with_d):
        marginals = consistent_marginals(m1_with_d)
        joint = expand(m1_with_d, marginals)
        cells = joint.cells.copy()
        # move all (v=0, vhat=0) mass of slice 0 into (v=0, vhat=1)
        for y in (0, 1):
            cells[0b0010 + y] += cells[0b0000 + y]
            cells[0b0000 + y] = 0.0
        back = reduce(FullJoint(cells=cells))
        assert back.slice0.d is None
        assert back.slice1.d is not None

    @pytest.mark.parametrize("seed", range(5))
    def test_d_is_the_query_rate(self, seed):
        # bit for bit, -0.0 cells included; None exactly where the event is empty
        rng = np.random.default_rng(seed)
        for i in range(200):
            cells = rng.dirichlet(np.full(16, (0.2, 1.0, 5.0)[i % 3]))
            cells[rng.random(16) < 0.15 * (i % 2)] = -0.0 if i % 4 == 1 else 0.0
            cells[cells.argmax()] += 1.0 - cells.sum()
            joint = FullJoint(cells=cells)
            try:
                model = reduce(joint)
            except ZeroMassCondition:
                continue
            for l, params in enumerate(model.slices()):
                try:
                    want = conditional_prob(joint, {"y": 1}, {"v": 0, "vhat": 0, "l": l}).hex()
                except ZeroMassCondition:
                    want = None
                assert (params.d if params.d is None else params.d.hex()) == want

    def test_uniform_joint_reduces_to_half_cells(self):
        model = reduce(uniform_joint())
        for params in model.slices():
            assert params.p == pytest.approx(0.5, abs=1e-15)
            assert params.r == pytest.approx(0.5, abs=1e-15)
            for field in ("a", "b", "c", "d"):
                assert getattr(params, field) == pytest.approx(0.5, abs=1e-15)


class TestGapsFromJoint:
    def test_matches_reduced_path(self, m1_joint):
        via_joint = gaps_from_joint(m1_joint)
        via_reduce = compute_gaps(reduce(m1_joint))
        for field in ("G", "G_hat", "delta0", "delta1", "error"):
            assert getattr(via_joint, field) == pytest.approx(
                getattr(via_reduce, field), abs=1e-10
            )

    def test_random_joints_agree_with_reduced_path(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cells = rng.random(16)
            joint = FullJoint(cells=cells / cells.sum())
            via_joint = gaps_from_joint(joint)
            via_reduce = compute_gaps(reduce(joint))
            for field in ("G", "G_hat", "delta0", "delta1", "error"):
                assert getattr(via_joint, field) == pytest.approx(
                    getattr(via_reduce, field), abs=1e-10
                )


class TestConsistentMarginals:
    def test_respects_requested_rates(self, m1_with_d):
        marginals = consistent_marginals(m1_with_d, pr_l1=0.4, pr_v1=(0.3, 0.6))
        joint = expand(m1_with_d, marginals)
        assert conditional_prob(joint, {"l": 1}, {}) == pytest.approx(0.4, abs=1e-12)
        assert conditional_prob(joint, {"v": 1}, {"l": 0}) == pytest.approx(
            0.3, abs=1e-12
        )
        assert conditional_prob(joint, {"v": 1}, {"l": 1}) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_rejects_infeasible_mass(self):
        model = ReducedModel(
            slice0=SliceParams(p=0.9, r=0.0, a=0.5, b=0.5, c=0.5, d=0.5),
            slice1=SliceParams(p=0.1, r=0.1, a=0.5, b=0.5, c=0.5, d=0.5),
        )
        with pytest.raises(InconsistentMarginals, match="slice 0"):
            consistent_marginals(model, pr_v1=(0.9, 0.5))

    @pytest.mark.parametrize("pr_v1, message", [
        ((0.0, 0.5), "slice 0: Pr[v=1 | l] must be positive"),
        ((0.5, 0.0), "slice 1: Pr[v=1 | l] must be positive"),
        ((1.0, 0.5), "slice 0: pr_v1 = 1.0 needs total mass 1.0473684210526315 > 1"),
        ((0.5, 1.0), "slice 1: pr_v1 = 1.0 needs total mass 1.068494623655914 > 1"),
    ])
    def test_rejects_pr_v1_at_the_ends(self, m1_with_d, pr_v1, message):
        with pytest.raises(InconsistentMarginals) as err:
            consistent_marginals(m1_with_d, pr_v1=pr_v1)
        assert str(err.value) == message

    def test_rejects_p_equal_one(self):
        model = ReducedModel(
            slice0=SliceParams(p=1.0, r=0.1, a=0.5, b=0.5, c=0.5, d=0.5),
            slice1=SliceParams(p=0.1, r=0.1, a=0.5, b=0.5, c=0.5, d=0.5),
        )
        with pytest.raises(InconsistentMarginals):
            consistent_marginals(model)

    def test_rejects_recall_one(self):
        # r = 1 leaves no v=1, vhat=1 mass, and so no vhat=1 mass, for p = 0.1
        model = ReducedModel(
            slice0=SliceParams(p=0.1, r=1.0, a=0.5, b=0.5, c=0.5, d=0.5),
            slice1=SliceParams(p=0.1, r=0.1, a=0.5, b=0.5, c=0.5, d=0.5),
        )
        with pytest.raises(InconsistentMarginals) as err:
            consistent_marginals(model)
        assert str(err.value) == "slice 0: Pr[vhat=1 | l] = 0 cannot express p = 0.1"


class TestMarginalIndependence:
    def test_gap_report_ignores_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            model = random_reduced(rng, with_d=True)
            if model.slice0.p > 0.9 or model.slice1.p > 0.9:
                continue
            reports = []
            for pr_l1, frac in ((0.3, 0.4), (0.7, 0.8)):
                pr_v1 = []
                for params in model.slices():
                    cap = (1.0 - params.p) / (
                        (1.0 - params.p) + params.p * (1.0 - params.r)
                    )
                    pr_v1.append(max(frac * cap, 1e-3))
                joint = expand(
                    model, consistent_marginals(model, pr_l1=pr_l1, pr_v1=tuple(pr_v1))
                )
                reports.append(gaps_from_joint(joint))
            for field in ("G", "G_hat", "delta0", "delta1", "error"):
                assert getattr(reports[0], field) == pytest.approx(
                    getattr(reports[1], field), abs=1e-10
                )
