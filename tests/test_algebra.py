"""The array algebra against the scalar dataclass path, bit for bit.

``gap_terms``, ``gamma_terms``, ``closeness_terms``, ``bound_terms`` and
``slice_rates`` take floats or arrays. On arrays each element must equal what
``compute_gaps``, ``structure_params``, ``bound_report`` and ``reduce`` give
for that element alone, compared through ``float.hex`` so that signed zeros
and the first-wins ties of ``max``/``min`` count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gap_gauge import (
    FullJoint,
    ReducedModel,
    SliceParams,
    ZeroMassCondition,
    bound_report,
    compute_gaps,
    conditional_prob,
    reduce,
    structure_params,
)
from gap_gauge.bounds import bound_terms, closeness_terms, gamma_terms
from gap_gauge.model import SliceRates, gap_terms, slice_rates

# ties and signed zeros are drawn often, not left to chance
UNIT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
ROWS = st.lists(st.tuples(*[UNIT] * 10), min_size=1, max_size=8)

RATES = ("p", "r", "a", "b", "c")


def hexes(values) -> list[str]:
    return [float(x).hex() for x in values]


def split(rows) -> tuple[SliceRates, SliceRates]:
    cols = np.array(rows, dtype=float).T
    return SliceRates(*cols[:5]), SliceRates(*cols[5:])


def model_of(row) -> ReducedModel:
    return ReducedModel(
        slice0=SliceParams(*row[:5]),
        slice1=SliceParams(*row[5:]),
    )


@settings(max_examples=100, deadline=None)
@given(ROWS)
def test_gap_terms_match_compute_gaps(rows):
    got = gap_terms(*split(rows))
    for i, row in enumerate(rows):
        want = compute_gaps(model_of(row))
        assert hexes(x[i] for x in got) == hexes(
            (want.G, want.G_hat, want.delta0, want.delta1, want.error)
        )


@settings(max_examples=100, deadline=None)
@given(ROWS)
def test_structure_and_bounds_match_dataclass_path(rows):
    s0, s1 = split(rows)
    structure = (
        *gamma_terms(s0.p, s0.r, s1.p, s1.r),
        *closeness_terms(s0.a, s0.b, s0.c, s1.a, s1.b, s1.c),
    )
    bounds = bound_terms(*structure[:5])
    for i, row in enumerate(rows):
        model = model_of(row)
        params = structure_params(model)
        report = bound_report(model)
        assert hexes(x[i] for x in structure) == hexes(
            (params.gamma_A, params.gamma_B1, params.gamma_B2,
             params.eps_B1, params.eps_B2, params.g_star)
        )
        assert hexes(x[i] for x in bounds) == hexes(
            (report.bound_A, report.bound_B1, report.bound_B2,
             report.bound_combined_stated, report.bound_combined_proof, report.best)
        )


COUNTS = st.lists(
    st.lists(st.integers(0, 3), min_size=16, max_size=16).filter(any),
    min_size=1,
    max_size=8,
)
SMOOTHING = st.sampled_from([0.0, 0.0, 0.25, 1.0])


#: each rate's (target, conditioning event) within slice l, as reduce defines it
EVENTS = (
    ({"v": 0}, {"vhat": 1}),
    ({"vhat": 0}, {"v": 1}),
    ({"y": 1}, {"v": 1, "vhat": 1}),
    ({"y": 1}, {"v": 1, "vhat": 0}),
    ({"y": 1}, {"v": 0, "vhat": 1}),
)


def oracle_rates(joint: FullJoint) -> list[float]:
    """Both slices' p, r, a, b, c by conditional_prob; raises on the first empty event."""
    return [
        conditional_prob(joint, target, {**given_, "l": l})
        for l in (0, 1)
        for target, given_ in EVENTS
    ]


@settings(max_examples=100, deadline=None)
@given(COUNTS, SMOOTHING)
def test_slice_rates_match_conditional_prob(counts, smoothing):
    counts = np.array(counts)
    n = counts.sum(axis=1, keepdims=True)
    cells = (counts + smoothing) / (n + 16.0 * smoothing)
    s0, s1, ok = slice_rates(cells)
    assert ok.shape == (len(counts),)
    for i, row in enumerate(cells):
        joint = FullJoint(cells=row)
        try:
            want = oracle_rates(joint)
        except ZeroMassCondition as empty:
            # the mask is false exactly where reduce raises, naming the same event
            assert not ok[i]
            with pytest.raises(ZeroMassCondition) as raised:
                reduce(joint)
            assert str(raised.value) == str(empty)
            continue
        assert ok[i]
        assert hexes(x[i] for x in (*s0, *s1)) == hexes(want)
        model = reduce(joint)
        assert hexes(getattr(s, f) for s in model.slices() for f in RATES) == hexes(want)
