import gc
import io
import threading
import warnings

import numpy as np
import pytest

from gap_gauge import empirical
from gap_gauge import (
    AllReplicatesDegenerate,
    EmptyInput,
    FullJoint,
    MalformedRow,
    MissingColumn,
    MixedSchema,
    RecordDataset,
    ValidationError,
    ZeroMassCondition,
    bootstrap,
    derive_trial_stream,
    estimate,
    estimate_with_bootstrap,
    filter_ystar,
    fit_joint,
    parse_records,
    percentile,
    read_records_csv,
    sample_dataset,
)

BASIC = "l,v,vhat,y\n0,1,1,1\n0,0,1,0\n1,1,0,1\n1,0,0,0\n"


def all_combinations_dataset() -> RecordDataset:
    """One row per (l, v, vhat, y) cell; every event has uniform mass."""
    rows = [(i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(16)]
    l, v, vhat, y = zip(*rows)
    return RecordDataset(l=l, vhat=vhat, y=y, v=v)


class TestParseRecords:
    def test_basic_file(self):
        data = parse_records(BASIC)
        assert data.n == 4
        assert data.v_present and not data.ystar_present
        assert list(data.l) == [0, 0, 1, 1]
        assert list(data.v) == [1, 0, 1, 0]
        assert list(data.vhat) == [1, 1, 0, 0]
        assert list(data.y) == [1, 0, 1, 0]

    def test_ystar_column(self):
        data = parse_records("l,v,vhat,y,ystar\n0,1,1,1,1\n1,0,0,0,0\n")
        assert data.ystar_present
        assert list(data.ystar) == [1, 0]

    def test_crlf_line_endings(self):
        data = parse_records("l,v,vhat,y\r\n0,1,1,1\r\n1,0,0,0\r\n")
        assert data.n == 2

    def test_uniformly_empty_v(self):
        data = parse_records("l,v,vhat,y\n0,,1,1\n1,,0,0\n")
        assert not data.v_present
        assert data.n == 2

    def test_uniformly_empty_ystar(self):
        data = parse_records("l,v,vhat,y,ystar\n0,1,1,1,\n1,0,0,0,\n")
        assert not data.ystar_present

    def test_bytes_input_with_bom(self):
        data = parse_records(b"\xef\xbb\xbfl,v,vhat,y\n0,1,1,1\n")
        assert data.n == 1

    def test_binary_file_object(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(BASIC)
        with open(path, "rb") as handle:
            data = parse_records(handle)
        assert data.n == 4

    def test_binary_file_object_stays_open(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(BASIC)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open(path, "rb") as handle:
                data = parse_records(handle)
                gc.collect()
                assert not handle.closed
            gc.collect()
        assert data.n == 4
        assert [str(w.message) for w in caught] == []

    def test_read_records_csv(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(BASIC)
        data = read_records_csv(path)
        assert data.n == 4

    def test_malformed_value_cites_line(self):
        with pytest.raises(MalformedRow) as err:
            parse_records("l,v,vhat,y\n0,2,1,1\n")
        assert err.value.line == 2
        assert "'v'" in str(err.value)

    def test_malformed_value_on_later_line(self):
        with pytest.raises(MalformedRow) as err:
            parse_records("l,v,vhat,y\n0,1,1,1\n0,1,x,1\n")
        assert err.value.line == 3

    def test_wrong_column_count_cites_line(self):
        with pytest.raises(MalformedRow) as err:
            parse_records("l,v,vhat,y\n0,1,1\n")
        assert err.value.line == 2
        assert "columns" in str(err.value)

    def test_required_cell_cannot_be_empty(self):
        with pytest.raises(MalformedRow) as err:
            parse_records("l,v,vhat,y\n0,1,,1\n")
        assert "'vhat'" in str(err.value)

    def test_mixed_schema_cites_first_deviation(self):
        with pytest.raises(MixedSchema) as err:
            parse_records("l,v,vhat,y\n0,,1,1\n0,1,1,1\n1,,0,0\n")
        assert err.value.line == 3

    def test_mixed_schema_other_direction(self):
        with pytest.raises(MixedSchema) as err:
            parse_records("l,v,vhat,y\n0,1,1,1\n0,,1,1\n")
        assert err.value.line == 3

    def test_header_mismatch(self):
        with pytest.raises(MalformedRow) as err:
            parse_records("l,vhat,v,y\n0,1,1,1\n")
        assert err.value.line == 1

    def test_empty_file(self):
        with pytest.raises(EmptyInput):
            parse_records("")

    def test_header_only(self):
        with pytest.raises(EmptyInput):
            parse_records("l,v,vhat,y\n")


def text_parser_read(path) -> RecordDataset:
    """Reading a records file through the line-by-line text parser alone."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        try:
            return parse_records(handle)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


GOOD_ROWS = b"".join(
    f"{i >> 3 & 1},{i >> 2 & 1},{i >> 1 & 1},{i & 1}\n".encode() for i in range(100)
)
GOOD_ROWS_YSTAR = b"".join(
    f"{i >> 4 & 1},{i >> 3 & 1},{i >> 2 & 1},{i >> 1 & 1},{i & 1}\n".encode()
    for i in range(32)
)

#: (file bytes, whether the byte-matrix layout applies)
LAYOUT_CASES = {
    "clean 4 columns": (b"l,v,vhat,y\n" + GOOD_ROWS, True),
    "clean 5 columns": (b"l,v,vhat,y,ystar\n" + GOOD_ROWS_YSTAR, True),
    "BOM": (b"\xef\xbb\xbfl,v,vhat,y\n" + GOOD_ROWS, True),
    "one row": (b"l,v,vhat,y\n1,0,1,0\n", True),
    "CRLF": (b"l,v,vhat,y\r\n" + GOOD_ROWS.replace(b"\n", b"\r\n"), False),
    "CRLF rows only": (b"l,v,vhat,y\n" + GOOD_ROWS.replace(b"\n", b"\r\n"), False),
    "no final newline": (b"l,v,vhat,y\n" + GOOD_ROWS[:-1], False),
    "cell 2": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,2,1\n", False),
    "cell 01": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,01,1\n", False),
    "extra column": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,1,1,0\n", False),
    "two rows on one line": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,1,1,0,1,1,1\n", False),
    "semicolons": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0;1;1;1\n", False),
    "v uniformly empty": (b"l,v,vhat,y\n0,,1,1\n1,,0,0\n", False),
    "v empty on one row": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,,1,1\n" + GOOD_ROWS, False),
    "ystar uniformly empty": (b"l,v,vhat,y,ystar\n0,1,1,1,\n1,0,0,0,\n", False),
    "blank last line": (b"l,v,vhat,y\n" + GOOD_ROWS + b"\n", False),
    "header only": (b"l,v,vhat,y\n", False),
    "empty file": (b"", False),
    "wrong header": (b"l,vhat,v,y\n" + GOOD_ROWS, False),
    "quoted header": (b'"l",v,vhat,y\n' + GOOD_ROWS, False),
    "not UTF-8 after 100 rows": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,\xff,1\n", False),
}


class TestReadRecordsLayout:
    """``read_records_csv`` agrees with the text parser on every file."""

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_same_outcome_as_text_parser(self, tmp_path, monkeypatch, case):
        content, fast = LAYOUT_CASES[case]
        path = tmp_path / "records.csv"
        path.write_bytes(content)
        try:
            expected = text_parser_read(path)
        except Exception as exc:  # the outcome compared may be any error
            expected = exc

        calls = []
        text_parse = empirical.parse_records
        monkeypatch.setattr(
            empirical, "parse_records", lambda s: calls.append(s) or text_parse(s)
        )
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as err:
                read_records_csv(path)
            assert str(err.value) == str(expected)
            assert getattr(err.value, "line", None) == getattr(expected, "line", None)
        else:
            got = read_records_csv(path)
            for name in ("l", "v", "vhat", "y", "ystar"):
                want, have = getattr(expected, name), getattr(got, name)
                assert (want is None) == (have is None), name
                if want is not None:
                    assert have.dtype == want.dtype, name
                    assert np.array_equal(have, want), name
        assert (not calls) == fast

    def test_mixed_schema_line_number(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(LAYOUT_CASES["v empty on one row"][0])
        with pytest.raises(MixedSchema) as err:
            read_records_csv(path)
        assert err.value.line == 102

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(LAYOUT_CASES["not UTF-8 after 100 rows"][0])
        with pytest.raises(ValidationError, match="not UTF-8"):
            read_records_csv(path)


class TestRecordDataset:
    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError, match="0/1"):
            RecordDataset(l=[0, 2], vhat=[0, 1], y=[0, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            RecordDataset(l=[0, 1], vhat=[0, 1], y=[0, 1], v=[1])

    def test_take_repeats_rows(self):
        data = parse_records(BASIC)
        sub = data.take([3, 3, 0])
        assert list(sub.l) == [1, 1, 0]
        assert list(sub.v) == [0, 0, 1]

    def test_columns_are_frozen(self):
        data = parse_records(BASIC)
        with pytest.raises(ValueError):
            data.l[0] = 1


class TestFilterYstar:
    def test_keeps_only_qualified_rows(self):
        data = parse_records(
            "l,v,vhat,y,ystar\n0,1,1,1,1\n0,0,1,0,0\n1,1,0,1,1\n"
        )
        kept = filter_ystar(data)
        assert kept.n == 2
        assert list(kept.l) == [0, 1]

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            filter_ystar(parse_records(BASIC))

    def test_no_qualified_rows(self):
        data = parse_records("l,v,vhat,y,ystar\n0,1,1,1,0\n1,0,0,0,0\n")
        with pytest.raises(EmptyInput):
            filter_ystar(data)


class TestFitJoint:
    def test_counts_to_frequencies(self):
        joint = fit_joint(all_combinations_dataset())
        assert np.allclose(joint.cells, 1.0 / 16.0, atol=0)

    def test_smoothing_formula(self):
        data = parse_records(BASIC)
        joint = fit_joint(data, smoothing=1.0)
        # each observed cell: (1 + 1) / (4 + 16); unobserved: 1 / 20
        observed = 8 * 0 + 4 * 1 + 2 * 1 + 1
        assert joint.cells[observed] == pytest.approx(2.0 / 20.0, abs=1e-15)
        assert joint.cells[8 * 1 + 4 * 1 + 2 * 1 + 1] == pytest.approx(
            1.0 / 20.0, abs=1e-15
        )

    def test_requires_v(self):
        data = parse_records("l,v,vhat,y\n0,,1,1\n1,,0,0\n")
        with pytest.raises(MissingColumn):
            fit_joint(data)

    def test_rejects_negative_smoothing(self):
        with pytest.raises(ValidationError, match="smoothing"):
            fit_joint(all_combinations_dataset(), smoothing=-0.5)


class TestSampleDataset:
    def test_deterministic(self, m1_joint):
        one = sample_dataset(m1_joint, 500, seed=42)
        two = sample_dataset(m1_joint, 500, seed=42)
        assert np.array_equal(one.l, two.l)
        assert np.array_equal(one.v, two.v)
        assert np.array_equal(one.vhat, two.vhat)
        assert np.array_equal(one.y, two.y)

    def test_seed_matters(self, m1_joint):
        one = sample_dataset(m1_joint, 500, seed=1)
        two = sample_dataset(m1_joint, 500, seed=2)
        assert not (
            np.array_equal(one.l, two.l)
            and np.array_equal(one.v, two.v)
            and np.array_equal(one.vhat, two.vhat)
            and np.array_equal(one.y, two.y)
        )

    def test_frequencies_track_joint(self, m1_joint):
        data = sample_dataset(m1_joint, 200_000, seed=7)
        counts = np.bincount(
            8 * data.l.astype(int)
            + 4 * data.v.astype(int)
            + 2 * data.vhat.astype(int)
            + data.y.astype(int),
            minlength=16,
        )
        assert np.abs(counts / data.n - m1_joint.cells).max() < 0.01

    def test_rejects_bad_n(self, m1_joint):
        with pytest.raises(ValidationError, match="n"):
            sample_dataset(m1_joint, 0, seed=1)


class TestEstimate:
    def test_uniform_data_has_no_gap(self):
        report = estimate(all_combinations_dataset())
        assert report.n == 16
        assert report.counts_index == "8*l + 4*v + 2*vhat + y"
        assert sum(report.counts) == 16
        assert report.gap.G == pytest.approx(0.0, abs=1e-12)
        assert report.gap.G_hat == pytest.approx(0.0, abs=1e-12)
        assert report.structure.gamma_A == pytest.approx(0.5, abs=1e-12)
        assert report.bounds is not None

    def test_recovers_m1_from_large_sample(self, m1_joint):
        data = sample_dataset(m1_joint, 100_000, seed=3)
        report = estimate(data)
        assert report.gap.G == pytest.approx(0.201, abs=0.02)
        assert report.gap.G_hat == pytest.approx(0.202, abs=0.02)
        assert report.g_hat == report.gap.G_hat

    def test_g_hat_only_without_v(self):
        data = parse_records(
            "l,v,vhat,y\n0,,1,1\n0,,1,0\n1,,1,1\n1,,1,1\n1,,1,0\n0,,0,0\n"
        )
        report = estimate(data)
        assert report.counts_index == "4*l + 2*vhat + y"
        assert len(report.counts) == 8
        assert report.gap is None and report.structure is None
        assert report.bounds is None
        assert report.g_hat == pytest.approx(2.0 / 3.0 - 0.5, abs=1e-12)

    def test_g_hat_smoothing(self):
        data = parse_records(
            "l,v,vhat,y\n0,,1,1\n0,,1,0\n1,,1,1\n1,,1,1\n1,,1,0\n0,,0,0\n"
        )
        report = estimate(data, smoothing=1.0)
        # slice 1: (2+1)/(3+2); slice 0: (1+1)/(2+2)
        assert report.g_hat == pytest.approx(0.6 - 0.5, abs=1e-12)

    def test_zero_mass_names_event(self):
        data = parse_records("l,v,vhat,y\n0,,1,1\n0,,0,0\n1,,0,0\n")
        with pytest.raises(ZeroMassCondition, match="vhat=1, l=1"):
            estimate(data)

    def test_zero_mass_in_full_pipeline(self):
        base = all_combinations_dataset()
        # drop every (l=1, v=1, vhat=0) row
        keep = [
            i
            for i in range(16)
            if not (i >> 3 & 1 and i >> 2 & 1 and not (i >> 1 & 1))
        ]
        with pytest.raises(ZeroMassCondition) as err:
            estimate(base.take(keep))
        assert "v=1" in str(err.value) and "vhat=0" in str(err.value)

    def test_smoothing_rescues_zero_mass(self):
        base = all_combinations_dataset()
        keep = [
            i
            for i in range(16)
            if not (i >> 3 & 1 and i >> 2 & 1 and not (i >> 1 & 1))
        ]
        report = estimate(base.take(keep), smoothing=1.0)
        assert report.gap is not None


class TestBootstrap:
    def test_deterministic(self, m1_joint):
        data = sample_dataset(m1_joint, 2000, seed=5)
        one = bootstrap(data, replicates=50, seed=9)
        two = bootstrap(data, replicates=50, seed=9)
        assert one.intervals == two.intervals
        assert one.skipped == two.skipped

    def test_seed_changes_intervals(self, m1_joint):
        data = sample_dataset(m1_joint, 2000, seed=5)
        one = bootstrap(data, replicates=50, seed=1)
        two = bootstrap(data, replicates=50, seed=2)
        assert one.intervals != two.intervals

    def test_single_replicate_collapses(self, m1_joint):
        data = sample_dataset(m1_joint, 2000, seed=5)
        result = bootstrap(data, replicates=1, seed=3)
        for lo, hi in result.intervals.values():
            assert lo == hi

    def test_quantities_with_v(self, m1_joint):
        data = sample_dataset(m1_joint, 2000, seed=5)
        result = bootstrap(data, replicates=20, seed=3)
        assert set(result.intervals) == {
            "G", "G_hat", "delta0", "delta1", "error", "best_bound",
        }
        for lo, hi in result.intervals.values():
            assert lo <= hi

    def test_quantities_without_v(self):
        rows = ["l,v,vhat,y"]
        rng = np.random.default_rng(31)
        for _ in range(200):
            l, vhat, y = rng.integers(0, 2, size=3)
            rows.append(f"{l},,{vhat},{y}")
        data = parse_records("\n".join(rows) + "\n")
        result = bootstrap(data, replicates=30, seed=4)
        assert set(result.intervals) == {"G_hat"}

    def test_interval_contains_point_estimate(self, m1_joint):
        data = sample_dataset(m1_joint, 5000, seed=11)
        point = estimate(data)
        result = bootstrap(data, replicates=200, seed=13)
        lo, hi = result.intervals["G_hat"]
        assert lo <= point.gap.G_hat <= hi
        lo, hi = result.intervals["G"]
        assert lo <= point.gap.G <= hi

    def test_skips_degenerate_replicates(self):
        # every (l, v, vhat) event holds exactly 2 of 16 rows, so many
        # resamples miss one event entirely and are skipped
        data = all_combinations_dataset()
        result = bootstrap(data, replicates=40, seed=21)
        assert result.skipped > 0
        assert result.skipped < 40
        assert result.intervals

    def test_all_replicates_degenerate(self):
        # no (l=1, v=1, vhat=0) row exists, so every resample degenerates
        base = all_combinations_dataset()
        keep = [
            i
            for i in range(16)
            if not (i >> 3 & 1 and i >> 2 & 1 and not (i >> 1 & 1))
        ]
        with pytest.raises(AllReplicatesDegenerate):
            bootstrap(base.take(keep), replicates=10, seed=1)

    def test_coverage_near_nominal(self, m1_joint):
        # the 95% interval for G_hat should contain the generating value in
        # most of a batch of independent datasets
        hits = 0
        for k in range(10):
            data = sample_dataset(m1_joint, 5000, seed=100 + k)
            result = bootstrap(data, replicates=100, seed=200 + k)
            lo, hi = result.intervals["G_hat"]
            hits += lo <= 0.202 <= hi
        assert hits >= 7

    def test_validation(self, m1_joint):
        data = sample_dataset(m1_joint, 100, seed=1)
        with pytest.raises(ValidationError, match="replicates"):
            bootstrap(data, replicates=0)
        with pytest.raises(ValidationError, match="level"):
            bootstrap(data, replicates=5, level=1.0)
        with pytest.raises(ValidationError, match="seed"):
            bootstrap(data, replicates=5, seed=-1)

    @pytest.mark.parametrize("replicates", [empirical.MAX_REPLICATES + 1, 10**20])
    def test_rejects_more_than_max_replicates_before_drawing(
        self, m1_joint, monkeypatch, replicates
    ):
        data = sample_dataset(m1_joint, 100, seed=1)

        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(empirical, "_resample_counts", no_draw)
        with pytest.raises(ValidationError) as err:
            bootstrap(data, replicates=replicates)
        assert str(err.value) == (
            f"replicates must be at most {empirical.MAX_REPLICATES}, got {replicates}"
        )


def row_resample_bootstrap(dataset, replicates, level, seed, smoothing):
    """Reference bootstrap: resample whole rows, then re-estimate each replicate.

    Returns ``(intervals, skipped)`` and raises what the bootstrap raises.
    """
    values: dict[str, list[float]] = {}
    skipped = 0
    for i in range(replicates):
        idx = derive_trial_stream(seed, i).integers(0, dataset.n, size=dataset.n)
        try:
            report = estimate(dataset.take(idx), smoothing)
        except ZeroMassCondition:
            skipped += 1
            continue
        quantities = {"G_hat": report.g_hat}
        if report.gap is not None:
            quantities = {
                "G": report.gap.G,
                "G_hat": report.gap.G_hat,
                "delta0": report.gap.delta0,
                "delta1": report.gap.delta1,
                "error": report.gap.error,
                "best_bound": report.bounds.best,
            }
        for key, value in quantities.items():
            values.setdefault(key, []).append(value)
    if not values:
        raise AllReplicatesDegenerate(
            f"all {replicates} bootstrap replicates hit zero-mass conditions"
        )
    lo_q, hi_q = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    intervals = {
        key: (percentile(vals, lo_q), percentile(vals, hi_q))
        for key, vals in sorted(values.items())
    }
    return intervals, skipped


def hex_intervals(intervals):
    return {key: (lo.hex(), hi.hex()) for key, (lo, hi) in intervals.items()}


def without_v(dataset: RecordDataset) -> RecordDataset:
    return RecordDataset(l=dataset.l, vhat=dataset.vhat, y=dataset.y)


class TestCountsBootstrap:
    """The counts bootstrap equals the row-resampling reference exactly."""

    def assert_matches_reference(self, data, replicates, level, seed, smoothing):
        want, want_skipped = row_resample_bootstrap(data, replicates, level, seed, smoothing)
        got = bootstrap(data, replicates, level=level, seed=seed, smoothing=smoothing)
        assert hex_intervals(got.intervals) == hex_intervals(want)
        assert list(got.intervals) == list(want)
        assert got.skipped == want_skipped
        return got

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    @pytest.mark.parametrize("v_present", [True, False])
    def test_matches_reference(self, m1_joint, seed, smoothing, v_present):
        data = sample_dataset(m1_joint, 400, seed=17)
        if not v_present:
            data = without_v(data)
        self.assert_matches_reference(data, 25, 0.9, seed, smoothing)

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_matches_reference_with_skipped_replicates(self, seed):
        got = self.assert_matches_reference(all_combinations_dataset(), 40, 0.95, seed, 0.0)
        assert 0 < got.skipped < 40

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_matches_reference_without_v_with_skipped_replicates(self, seed):
        # a single (l=0, vhat=1) row: resamples that miss it are skipped
        data = RecordDataset(l=[0, 0, 0, 1, 1, 1], vhat=[1, 0, 0, 1, 1, 0], y=[1, 0, 1, 0, 1, 1])
        got = self.assert_matches_reference(data, 40, 0.95, seed, 0.0)
        assert 0 < got.skipped < 40

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_all_degenerate_matches_reference(self, seed):
        keep = [i for i in range(16) if not (i >> 3 & 1 and i >> 2 & 1 and not (i >> 1 & 1))]
        data = all_combinations_dataset().take(keep)
        with pytest.raises(AllReplicatesDegenerate) as want:
            row_resample_bootstrap(data, 10, 0.95, seed, 0.0)
        with pytest.raises(AllReplicatesDegenerate) as got:
            bootstrap(data, 10, seed=seed)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("chunk", [1, 7, 402, 403, 404])
    @pytest.mark.parametrize("v_present", [True, False])
    def test_matches_reference_across_chunk_sizes(self, m1_joint, monkeypatch, chunk, v_present):
        # n = 403 is a multiple of none of 7, n - 1 and n + 1, so the last
        # chunk of a replicate is a partial one
        data = sample_dataset(m1_joint, 403, seed=23)
        if not v_present:
            data = without_v(data)
        monkeypatch.setattr(empirical, "_CHUNK", chunk)
        self.assert_matches_reference(data, 6, 0.9, 5, 0.0)

    def test_draws_every_replicate_in_order_in_the_calling_thread(self, m1_joint, monkeypatch):
        # perfbench/tracer.py keeps one span stack, which only one thread may use
        data = sample_dataset(m1_joint, 400, seed=17)
        drawn: list[tuple[int, int]] = []

        def recording_stream(seed, i):
            drawn.append((i, threading.get_ident()))
            return derive_trial_stream(seed, i)

        monkeypatch.setattr(empirical, "derive_trial_stream", recording_stream)
        bootstrap(data, 10, seed=1)
        assert drawn == [(i, threading.get_ident()) for i in range(10)]

    def test_never_resamples_rows(self, m1_joint, monkeypatch):
        data = sample_dataset(m1_joint, 200, seed=3)

        def refuse(*args, **kwargs):
            raise AssertionError("the counts bootstrap must not resample rows")

        monkeypatch.setattr(RecordDataset, "take", refuse)
        monkeypatch.setattr(empirical, "estimate", refuse)
        assert bootstrap(data, 5, seed=1).intervals

    @pytest.mark.parametrize("v_present", [True, False])
    def test_estimate_counts_follow_the_cell_index(self, m1_joint, v_present):
        data = sample_dataset(m1_joint, 3000, seed=8)
        l, v, vhat, y = (col.astype(np.int64) for col in (data.l, data.v, data.vhat, data.y))
        if v_present:
            want = np.bincount(8 * l + 4 * v + 2 * vhat + y, minlength=16)
        else:
            data = without_v(data)
            want = np.bincount(4 * l + 2 * vhat + y, minlength=8)
        assert estimate(data).counts == tuple(int(c) for c in want)


class TestEstimateWithBootstrap:
    def test_attaches_intervals(self, m1_joint):
        data = sample_dataset(m1_joint, 1000, seed=2)
        report = estimate_with_bootstrap(data, replicates=25, seed=6)
        assert report.bootstrap is not None
        assert report.bootstrap.replicates == 25

    def test_zero_replicates_means_no_bootstrap(self, m1_joint):
        data = sample_dataset(m1_joint, 1000, seed=2)
        report = estimate_with_bootstrap(data)
        assert report.bootstrap is None
