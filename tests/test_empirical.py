import concurrent.futures
import csv
import gc
import hashlib
import io
import itertools
import os
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields

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
    bound_report,
    compute_gaps,
    derive_trial_stream,
    estimate,
    estimate_with_bootstrap,
    filter_ystar,
    fit_joint,
    parse_records,
    percentile,
    read_records_csv,
    reduce,
    sample_dataset,
    structure_params,
)
from oracles import gaps_from_joint, parse_records_text

BASIC = "l,v,vhat,y\n0,1,1,1\n0,0,1,0\n1,1,0,1\n1,0,0,0\n"


def all_combinations_dataset() -> RecordDataset:
    """One row per (l, v, vhat, y) cell; every event has uniform mass."""
    rows = [(i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(16)]
    l, v, vhat, y = zip(*rows)
    return RecordDataset(l=l, vhat=vhat, y=y, v=v)


class BinaryFileLike:
    """A binary file that is no io stream: ``read`` and ``mode`` alone."""

    mode = "rb"

    def __init__(self, data: bytes):
        self.read = io.BytesIO(data).read


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

    @pytest.mark.parametrize("wrap", [
        bytes, io.BytesIO, BinaryFileLike,
        lambda data: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
    ], ids=["bytes", "binary handle", "binary file-like", "text stream"])
    def test_bytes_not_utf8_are_a_validation_error(self, wrap):
        with pytest.raises(ValidationError, match=r"^not UTF-8 text \(.*can't decode byte 0xff"):
            parse_records(wrap(b"l,v,vhat,y\n0,1,\xff,1\n"))

    def test_bytes_input_with_bom(self):
        data = parse_records(b"\xef\xbb\xbfl,v,vhat,y\n0,1,1,1\n")
        assert data.n == 1

    def test_binary_file_object(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(BASIC)
        with open(path, "rb") as handle:
            data = parse_records(handle)
        assert data.n == 4

    def test_binary_file_like_object(self):
        assert parse_records(BinaryFileLike(BASIC.encode())).n == 4

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

    @pytest.mark.parametrize("line", [1, 3])
    def test_cell_over_the_csv_field_limit_cites_line(self, line):
        rows = ["l,v,vhat,y", "0,1,1,1", "0,1,0,1"]
        rows[line - 1] = "0" * 200_000 + rows[line - 1]
        with pytest.raises(MalformedRow) as err:
            parse_records("\n".join(rows) + "\n")
        assert err.value.line == line
        assert str(err.value) == f"line {line}: field larger than field limit ({csv.field_size_limit()})"

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

    def test_mixed_schema_is_a_malformed_row(self):
        try:
            parse_records("l,v,vhat,y,ystar\n0,1,1,1,1\n0,1,1,1,\n")
        except MalformedRow as exc:
            assert type(exc) is MixedSchema
            assert (exc.line, exc.reason) == (3, "column 'ystar' must be uniformly present or empty")
        else:
            pytest.fail("no MalformedRow raised")

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


def parse_outcome(parse, content):
    """What ``parse`` gives on ``content``: the dataset with its dtypes, or the error's
    type, line and message."""
    try:
        data = parse(content)
    except (ValidationError, EmptyInput) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return data, data.codes.dtype, None if data.ystar is None else data.ystar.dtype


#: First data rows for each header: v and ystar each present or empty
ORACLE_FIRST_ROWS = {
    "l,v,vhat,y": ["0,1,1,0", "1,,0,1"],
    "l,v,vhat,y,ystar": ["0,1,1,0,1", "1,,0,1,", "1,0,0,1,", "0,,1,1,0"],
}


class TestParseRecordsMatchesOracle:
    """The whole-row parser gives what the cell-by-cell reference gives."""

    @pytest.mark.parametrize("header, first", [
        (header, first) for header, firsts in ORACLE_FIRST_ROWS.items() for first in firsts
    ])
    def test_every_second_row(self, header, first):
        # every tuple of 0, 1, empty and 2 after the first row
        width = header.count(",") + 1
        for cells in itertools.product(("0", "1", "", "2"), repeat=width):
            text = f"{header}\n{first}\n{','.join(cells)}\n{first}\n"
            assert parse_outcome(parse_records, text) == parse_outcome(
                parse_records_text, text
            ), text

    @pytest.mark.parametrize("header", sorted(ORACLE_FIRST_ROWS))
    @pytest.mark.parametrize("bad", ["0,1,1", "0,1,1,1,1,1", ""], ids=["short", "long", "blank"])
    @pytest.mark.parametrize("later", [False, True], ids=["first row", "later row"])
    def test_row_of_another_width(self, header, bad, later):
        good = ORACLE_FIRST_ROWS[header][0]
        rows = [good, bad, good] if later else [bad, good]
        text = "\n".join([header, *rows]) + "\n"
        want = parse_outcome(parse_records_text, text)
        assert want[0] is MalformedRow
        assert parse_outcome(parse_records, text) == want


#: Every input form of records text but a file, each made from the text
TEXT_FORMS = {
    "str": str,
    "bytes": str.encode,
    "bytearray": lambda text: bytearray(text.encode()),
    "binary handle": lambda text: io.BytesIO(text.encode()),
    "binary file-like": lambda text: BinaryFileLike(text.encode()),
    "text handle": io.StringIO,
    "list of lines": lambda text: text.splitlines(keepends=True),
    "iterator of lines": lambda text: iter(text.splitlines(keepends=True)),
}

#: The ``open`` mode and encoding of each file form
FILE_FORMS = {
    "utf-8 file": ("r", "utf-8"), "utf-8-sig file": ("r", "utf-8-sig"),
    "UTF_8_SIG file": ("r", "UTF_8_SIG"), "binary file": ("rb", None),
}


class TestByteOrderMark:
    """One leading BOM is dropped from every input form, and a second is refused."""

    @pytest.mark.parametrize("form", [*TEXT_FORMS, *FILE_FORMS])
    def test_every_form_parses_as_its_twin_without_bom(self, tmp_path, form):
        def parse(text):
            if form in TEXT_FORMS:
                return parse_records(TEXT_FORMS[form](text))
            path = tmp_path / "records.csv"
            path.write_bytes(text.encode())
            mode, encoding = FILE_FORMS[form]
            with open(path, mode, encoding=encoding) as handle:
                return parse_records(handle)

        for text in (BASIC, "l,v,vhat,y,ystar\r\n0,,1,1,0\r\n1,,0,0,1\r\n"):
            assert parse("\ufeff" + text) == parse(text)
        with pytest.raises(MalformedRow) as err:
            parse("\ufeff\ufeff" + BASIC)
        assert str(err.value) == "line 1: header must be l,v,vhat,y[,ystar], got '\\ufeffl,v,vhat,y'"

    def test_bom_before_a_quoted_header_cell(self):
        assert parse_records('\ufeff"l",v,vhat,y\n0,1,1,1\n') == parse_records("l,v,vhat,y\n0,1,1,1\n")

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO, BinaryFileLike])
    def test_bytes_not_utf8_after_a_bom_count_the_position_after_it(self, wrap):
        content = b"l,v,vhat,y\n0,1,1,1\n0,\xff,1,1\n"
        messages = []
        for bom in (b"", b"\xef\xbb\xbf"):
            with pytest.raises(ValidationError) as err:
                parse_records(wrap(bom + content))
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "can't decode byte 0xff in position 21" in messages[0]


def text_parser_read(path) -> RecordDataset:
    """Reading a records file through the line-by-line text parser alone.

    As ``read_records_csv`` does, the error for bytes that are not UTF-8
    names the path.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        try:
            return parse_records(handle)
        except ValidationError as exc:
            if not str(exc).startswith("not UTF-8 text ("):
                raise
            raise ValidationError(f"{path}: {exc}") from exc


GOOD_ROWS = b"".join(
    f"{i >> 3 & 1},{i >> 2 & 1},{i >> 1 & 1},{i & 1}\n".encode() for i in range(100)
)
GOOD_ROWS_YSTAR = b"".join(
    f"{i >> 4 & 1},{i >> 3 & 1},{i >> 2 & 1},{i >> 1 & 1},{i & 1}\n".encode()
    for i in range(32)
)

#: The l, v, vhat, y and ystar cells of the 403 rows that ``layout_rows`` writes
BLOCK_COLUMNS = np.random.default_rng(5).integers(0, 2, size=(5, 403))

#: (BOM, line ending, v present, ystar "absent", "present" or "empty")
BLOCK_LAYOUTS = list(itertools.product(
    (False, True), (b"\n", b"\r\n"), (True, False), ("absent", "present", "empty")
))


def layout_id(layout) -> str:
    bom, eol, v, ystar = layout
    return "-".join((
        "bom" if bom else "plain", "crlf" if eol == b"\r\n" else "lf",
        "v" if v else "no_v", f"ystar_{ystar}",
    ))


def layout_rows(bom: bool, eol: bytes, v: bool, ystar: str) -> list[bytes]:
    """The header and rows of BLOCK_COLUMNS in one fixed-width layout, line endings included."""
    names = ["l", "v", "vhat", "y"] + ([] if ystar == "absent" else ["ystar"])
    lines = [",".join(names)]
    for l, vv, vhat, y, ys in BLOCK_COLUMNS.T:
        cells = [str(l), str(vv) if v else "", str(vhat), str(y)]
        if ystar != "absent":
            cells.append(str(ys) if ystar == "present" else "")
        lines.append(",".join(cells))
    rows = [line.encode() + eol for line in lines]
    if bom:
        rows[0] = b"\xef\xbb\xbf" + rows[0]
    return rows


#: (file bytes, whether the block reader takes the file without the text parser)
LAYOUT_CASES = {
    "clean 4 columns": (b"l,v,vhat,y\n" + GOOD_ROWS, True),
    "clean 5 columns": (b"l,v,vhat,y,ystar\n" + GOOD_ROWS_YSTAR, True),
    "BOM": (b"\xef\xbb\xbfl,v,vhat,y\n" + GOOD_ROWS, True),
    "one row": (b"l,v,vhat,y\n1,0,1,0\n", True),
    "CRLF": (b"l,v,vhat,y\r\n" + GOOD_ROWS.replace(b"\n", b"\r\n"), True),
    "CRLF rows only": (b"l,v,vhat,y\n" + GOOD_ROWS.replace(b"\n", b"\r\n"), True),
    "no final newline": (b"l,v,vhat,y\n" + GOOD_ROWS[:-1], True),
    "CRLF, no final line ending": (
        b"l,v,vhat,y\r\n" + GOOD_ROWS.replace(b"\n", b"\r\n")[:-2], True
    ),
    "CRLF, last row ends in CR": (
        b"l,v,vhat,y\r\n" + GOOD_ROWS.replace(b"\n", b"\r\n")[:-1], False
    ),
    "one row, no final newline": (b"l,v,vhat,y\n1,0,1,0", False),
    "last row cut short": (b"l,v,vhat,y\n" + GOOD_ROWS[:-3], False),
    "cell 2 in a last row without newline": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,2,1", False),
    "cell 2": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,2,1\n", False),
    "cell 01": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,01,1\n", False),
    "extra column": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,1,1,0\n", False),
    "two rows on one line": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,1,1,0,1,1,1\n", False),
    "semicolons": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0;1;1;1\n", False),
    "v uniformly empty": (b"l,v,vhat,y\n0,,1,1\n1,,0,0\n", True),
    "v empty on one row": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,,1,1\n" + GOOD_ROWS, False),
    "ystar uniformly empty": (b"l,v,vhat,y,ystar\n0,1,1,1,\n1,0,0,0,\n", True),
    "blank last line": (b"l,v,vhat,y\n" + GOOD_ROWS + b"\n", False),
    "header only": (b"l,v,vhat,y\n", False),
    "empty file": (b"", False),
    "wrong header": (b"l,vhat,v,y\n" + GOOD_ROWS, False),
    "quoted header": (b'"l",v,vhat,y\n' + GOOD_ROWS, False),
    "not UTF-8 after 100 rows": (b"l,v,vhat,y\n" + GOOD_ROWS + b"0,1,\xff,1\n", False),
    "first row cut short": (b"l,v,vhat,y\n0,1,1\n" + GOOD_ROWS, False),
    **{
        f"layout {layout_id(layout)}": (b"".join(layout_rows(*layout)), True)
        for layout in BLOCK_LAYOUTS
    },
}


def assert_same_columns(got: RecordDataset, want: RecordDataset) -> None:
    for name in ("l", "v", "vhat", "y", "ystar"):
        have, expected = getattr(got, name), getattr(want, name)
        assert (have is None) == (expected is None), name
        if expected is not None:
            assert have.dtype == expected.dtype, name
            assert np.array_equal(have, expected), name


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
            assert_same_columns(read_records_csv(path), expected)
        assert (not calls) == fast

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_codes_pack_the_columns(self, tmp_path, case):
        # both readers store 8l + 4v + 2vhat + y (4l + 2vhat + y without v)
        # and unpack the columns the csv module reads from the file
        path = tmp_path / "records.csv"
        path.write_bytes(LAYOUT_CASES[case][0])
        try:
            text_parser_read(path)
        except (ValidationError, EmptyInput):
            return  # test_same_outcome_as_text_parser compares the errors
        with open(path, encoding="utf-8-sig", newline="") as handle:
            header, *rows = csv.reader(handle)
        want = {}
        for name, cells in zip(header, zip(*rows)):
            if cells[0] != "":
                want[name] = np.array([int(cell) for cell in cells], dtype=np.int8)
        packed = np.zeros(len(rows), dtype=np.uint8)
        for name in ("l", "v", "vhat", "y"):
            if name in want:
                packed = 2 * packed + want[name].view(np.uint8)
        for data in (read_records_csv(path), text_parser_read(path)):
            assert data.codes.dtype == np.uint8 and not data.codes.flags.writeable
            assert np.array_equal(data.codes, packed)
            for name in ("l", "v", "vhat", "y", "ystar"):
                column = getattr(data, name)
                if name not in want:
                    assert column is None, name
                    continue
                assert column.dtype == np.int8 and not column.flags.writeable, name
                assert np.array_equal(column, want[name]), name

    def test_mixed_schema_line_number(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(LAYOUT_CASES["v empty on one row"][0])
        with pytest.raises(MixedSchema) as err:
            read_records_csv(path)
        assert err.value.line == 102

    def test_short_first_row_names_line_2(self, tmp_path):
        # _row_layout refuses the first row, so the text parser reports it
        path = tmp_path / "records.csv"
        path.write_bytes(LAYOUT_CASES["first row cut short"][0])
        with pytest.raises(MalformedRow) as err:
            read_records_csv(path)
        assert str(err.value) == "line 2: expected 4 columns, got 3"

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(LAYOUT_CASES["not UTF-8 after 100 rows"][0])
        with pytest.raises(ValidationError, match="not UTF-8"):
            read_records_csv(path)

    @pytest.mark.parametrize("form", [os.fsencode, lambda path: path], ids=["bytes", "Path"])
    def test_non_utf8_names_the_path_as_text(self, tmp_path, form):
        path = tmp_path / "nu.csv"
        path.write_bytes(LAYOUT_CASES["not UTF-8 after 100 rows"][0])
        with pytest.raises(ValidationError) as err:
            read_records_csv(form(path))
        assert str(err.value).startswith(f"{path}: not UTF-8 text (")


class TestBlockReader:
    """Fixed-width files are read block by block and give the text parser's columns."""

    @pytest.mark.parametrize("block_rows", [1, 7, 402, 403, 404])
    @pytest.mark.parametrize(
        "layout",
        [BLOCK_LAYOUTS[0], BLOCK_LAYOUTS[4], BLOCK_LAYOUTS[11], BLOCK_LAYOUTS[21]],
        ids=layout_id,
    )
    def test_block_size_never_changes_columns(self, tmp_path, monkeypatch, layout, block_rows):
        # n = 403 is a multiple of none of 7, n - 1 and n + 1, so the last
        # block is a partial one
        path = tmp_path / "records.csv"
        path.write_bytes(b"".join(layout_rows(*layout)))
        expected = text_parser_read(path)
        monkeypatch.setattr(empirical, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(empirical, "parse_records", None)  # no fallback
        assert_same_columns(read_records_csv(path), expected)

    #: (layout, replacement for the file's line 402, which the last 7-row block holds)
    LAST_BLOCK_CASES = {
        "bad cell": ((False, b"\n", True, "absent"), b"0,1,1,2\n"),
        "mixed schema": ((False, b"\n", False, "present"), b"0,1,1,1,\n"),
        "CRLF row, wrong width": ((False, b"\n", True, "present"), b"0,1,1,1,\r\n"),
        "LF row in a CRLF file": ((False, b"\r\n", True, "absent"), b"0,1,1,1,\n"),
        "CRLF row, valid": ((False, b"\n", True, "absent"), b"0,1,1,1\r\n"),
    }

    @pytest.mark.parametrize("case", sorted(LAST_BLOCK_CASES))
    def test_last_block_falls_back_to_text_parser(self, tmp_path, monkeypatch, case):
        layout, line = self.LAST_BLOCK_CASES[case]
        rows = layout_rows(*layout)
        rows[401] = line
        path = tmp_path / "records.csv"
        path.write_bytes(b"".join(rows))
        monkeypatch.setattr(empirical, "_BLOCK_ROWS", 7)
        calls = []
        text_parse = empirical.parse_records
        monkeypatch.setattr(
            empirical, "parse_records", lambda s: calls.append(s) or text_parse(s)
        )
        try:
            expected = text_parser_read(path)
        except ValidationError as exc:
            assert exc.line == 402
            with pytest.raises(type(exc)) as err:
                read_records_csv(path)
            assert str(err.value) == str(exc)
            assert err.value.line == 402
        else:
            assert_same_columns(read_records_csv(path), expected)
        # the file is handed over once, and parsed once through its text wrapper
        assert [type(stream) for stream in calls] == [io.BufferedReader, io.TextIOWrapper]

    @pytest.mark.parametrize("content", [
        b"".join(layout_rows(True, b"\r\n", False, "present")),
        b"".join(layout_rows(False, b"\n", True, "absent")[:-1]) + b"0,2,1,1\n",
        b"".join(layout_rows(False, b"\n", True, "absent"))[:-1],
        b"l,vhat,v,y\n0,1,1,1\n",
    ], ids=["block read", "bad last row", "no final newline", "bad header"])
    @pytest.mark.parametrize("block_rows", [7, 1 << 16])
    def test_digest_sees_every_byte_once(self, tmp_path, monkeypatch, content, block_rows):
        path = tmp_path / "records.csv"
        path.write_bytes(content)
        monkeypatch.setattr(empirical, "_BLOCK_ROWS", block_rows)
        digest = hashlib.sha256()
        try:
            read_records_csv(path, digest)
        except ValidationError:
            pass
        assert digest.hexdigest() == hashlib.sha256(content).hexdigest()

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("ystar", [False, True], ids=["no_ystar", "ystar"])
    def test_last_row_without_line_ending_is_read_in_blocks(
        self, tmp_path, monkeypatch, eol, ystar
    ):
        n = 70_000  # more than one block of _BLOCK_ROWS rows
        assert n > empirical._BLOCK_ROWS
        width = 5 if ystar else 4
        cells = np.random.default_rng(9).integers(0, 2, size=(n, width)).astype(np.uint8)
        rows = np.full((n, 2 * width - 1), ord(","), np.uint8)
        rows[:, ::2] = cells + ord("0")
        header = b"l,v,vhat,y,ystar" if ystar else b"l,v,vhat,y"
        lines = [header, *(row.tobytes() for row in rows)]
        whole = eol.join(lines) + eol
        ended, unended = tmp_path / "ended.csv", tmp_path / "unended.csv"
        ended.write_bytes(whole)
        unended.write_bytes(whole[: -len(eol)])
        expected = text_parser_read(ended)

        def no_text_parse(*args, **kwargs):
            raise AssertionError("the text parser ran")

        monkeypatch.setattr(empirical, "parse_records", no_text_parse)
        for path in (ended, unended):
            digest = hashlib.sha256()
            assert_same_columns(read_records_csv(path, digest), expected)
            assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("layout", [BLOCK_LAYOUTS[0], BLOCK_LAYOUTS[23]], ids=layout_id)
    def test_pipe_is_read_once(self, tmp_path, layout):
        content = b"".join(layout_rows(*layout))
        path = tmp_path / "records.csv"
        path.write_bytes(content)
        read, write = os.pipe()
        try:
            os.write(write, content)  # fits the pipe's buffer
            os.close(write)
            digest = hashlib.sha256()
            got = read_records_csv(f"/dev/fd/{read}", digest)
        finally:
            os.close(read)
        assert_same_columns(got, text_parser_read(path))
        assert digest.hexdigest() == hashlib.sha256(content).hexdigest()

    def test_memory_per_row(self, tmp_path):
        # the codes are one byte a row. Reading holds them and the four
        # block-sized buffers of 8-byte rows; estimate and bootstrap hold
        # chunk-sized buffers alone (a chunk's int64 indices, or bincount's
        # intp copy of a chunk's codes: 512 KiB), whatever the row count
        lines = b"".join(f"{c >> 3 & 1},{c >> 2 & 1},{c >> 1 & 1},{c & 1}\n".encode() for c in range(16))
        table = np.frombuffer(lines, dtype=np.uint8).reshape(16, 8)
        path = tmp_path / "records.csv"

        def peak(call):
            tracemalloc.start()
            try:
                result = call()
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        bound = 2**20
        for n in (1_000_000, 2_000_000):
            codes = np.random.default_rng(0).integers(0, 16, size=n)
            path.write_bytes(b"l,v,vhat,y\n" + table[codes].tobytes())
            del codes
            read_bound = n + 4 * empirical._BLOCK_ROWS * 8 + 2**16
            read_peak, data = peak(lambda: read_records_csv(path))
            estimate_peak, _ = peak(lambda: estimate(data))
            bootstrap_peak, _ = peak(lambda: bootstrap(data, 2, seed=0))
            assert data.n == n
            assert read_peak <= read_bound, f"read_records_csv: {read_peak / n:.2f} bytes a row at {n}"
            assert estimate_peak <= bound, f"estimate: {estimate_peak} bytes at {n} rows"
            assert bootstrap_peak <= bound, f"bootstrap: {bootstrap_peak} bytes at {n} rows"

    def test_filter_ystar_memory_per_row(self):
        # the mask is the ystar column itself, and the kept half of the rows
        # holds a code and a ystar byte each: 1 byte a row; an int64 index
        # array alone would be 4
        n = 1_000_000
        rng = np.random.default_rng(1)
        columns = {}
        for name in ("l", "v", "vhat", "y", "ystar"):
            columns[name] = rng.integers(0, 2, size=n, dtype=np.int8)
            columns[name].setflags(write=False)
        data = RecordDataset(**columns)
        tracemalloc.start()
        try:
            kept = filter_ystar(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n, f"filter_ystar: {peak / n:.2f} bytes a row"
        assert_same_columns(kept, data.take(np.flatnonzero(data.ystar == 1)))
        assert 0.49 * n < kept.n < 0.51 * n


class TestRecordDataset:
    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError, match="0/1"):
            RecordDataset(l=[0, 2], vhat=[0, 1], y=[0, 1])

    # an int8 cast first would wrap 256 to 0 and -255 to 1, turn 0.5 and NaN
    # into 0, warn that it drops the imaginary part of a complex column and
    # raise TypeError on a complex element of an object column
    @pytest.mark.parametrize("l", [
        [0, 256, 1], [0, -255, 1], [0.5, 1.0, 0.0], [0.0, np.nan, 1.0],
        np.full(3, 2, dtype=np.int64), np.array([0, 257, 1], dtype=np.int64), [1 + 0j, 0, 1],
        np.array([1 + 0j, 0, 1], dtype=object), np.array(["0", "1", "0"], dtype=object),
    ], ids=["256", "-255", "0.5", "nan", "int64 2s", "int64 257", "complex 0/1",
            "object complex 0/1", "object strings"])
    def test_rejects_values_before_the_cast(self, l):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                RecordDataset(l=l, vhat=[0, 1, 0], y=[1, 1, 0])
        assert str(err.value) == "l must contain only 0/1 values"

    def test_accepts_booleans_and_integral_floats(self):
        for l in ([False, True, True], np.array([0.0, 1.0, 1.0]), np.array([0, 1, 1], dtype=object)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = RecordDataset(l=l, vhat=[0, 1, 0], y=[1, 1, 0])
            assert data.l.tolist() == [0, 1, 1] and data.l.dtype == np.int8

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            RecordDataset(l=[0, 1], vhat=[0, 1], y=[0, 1], v=[1])

    def test_rejects_a_column_of_rows(self):
        with pytest.raises(ValidationError) as err:
            RecordDataset(l=[[0, 1]], vhat=[0, 1], y=[0, 1])
        assert str(err.value) == "l must be one-dimensional"

    def test_take_repeats_rows(self):
        data = parse_records(BASIC)
        sub = data.take([3, 3, 0])
        assert list(sub.l) == [1, 1, 0]
        assert list(sub.v) == [0, 0, 1]

    def test_columns_are_frozen(self):
        data = parse_records(BASIC)
        with pytest.raises(ValueError):
            data.l[0] = 1

    @pytest.mark.parametrize("indices", [[0.9, 2.7], [True, False, True]], ids=["float", "bool"])
    def test_take_refuses_non_integer_indices(self, indices):
        data = parse_records(BASIC)
        with pytest.raises(ValidationError, match="integer") as err:
            data.take(indices)
        assert str(err.value) == (
            f"row indices must be a one-dimensional integer array, "
            f"got 1-d {np.asarray(indices).dtype}"
        )

    def test_take_of_no_rows(self):
        data = parse_records("l,v,vhat,y,ystar\n0,1,1,1,1\n")
        for indices in ([], np.array([], dtype=np.int8)):
            empty = data.take(indices)
            assert empty.n == 0 and empty.v_present and empty.ystar.size == 0

    @pytest.mark.parametrize("kind", ["writeable", "read-only view", "int64"])
    def test_copies_columns_others_can_change(self, kind):
        base = np.array([0, 1, 1], dtype=np.int64 if kind == "int64" else np.int8)
        l = base[:] if kind == "read-only view" else base
        if kind == "read-only view":
            l.setflags(write=False)
        data = RecordDataset(l=l, vhat=[0, 1, 0], y=[1, 1, 0])
        base[0] = 1
        assert list(data.l) == [0, 1, 1]
        assert data.l.dtype == np.int8

    def test_checks_read_only_owned_columns(self):
        l = np.array([0, 2, 1], dtype=np.int8)
        l.setflags(write=False)
        with pytest.raises(ValidationError, match="l must contain only 0/1 values"):
            RecordDataset(l=l, vhat=[0, 1, 0], y=[1, 1, 0])


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

    def test_rejects_zero_rows(self):
        with pytest.raises(EmptyInput) as err:
            fit_joint(RecordDataset(l=[], v=[], vhat=[], y=[]))
        assert str(err.value) == "cannot fit a joint to zero rows"

    # 1e308 is finite, but the joint's denominator n + 16 smoothing is not
    @pytest.mark.parametrize("smoothing", [np.inf, np.nan, 1e308])
    @pytest.mark.parametrize("fit", ["fit_joint", "estimate", "bootstrap"])
    def test_rejects_smoothing_without_a_finite_joint(self, fit, smoothing):
        call = {
            "fit_joint": lambda: fit_joint(all_combinations_dataset(), smoothing=smoothing),
            "estimate": lambda: estimate(all_combinations_dataset(), smoothing=smoothing),
            "bootstrap": lambda: bootstrap(all_combinations_dataset(), 5, smoothing=smoothing),
        }[fit]
        with pytest.raises(ValidationError, match="smoothing must be a finite number >= 0"):
            call()


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
        for n in (0, True):
            with pytest.raises(ValidationError) as err:
                sample_dataset(m1_joint, n, seed=1)
            assert str(err.value) == f"n must be a positive integer, got {n!r}"


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

    def test_rejects_zero_rows(self):
        with pytest.raises(EmptyInput) as err:
            estimate(RecordDataset(l=[], v=[], vhat=[], y=[]))
        assert str(err.value) == "cannot estimate from zero rows"

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
        with pytest.raises(ZeroMassCondition, match="l=1, vhat=1"):
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

    def test_rejects_one_row(self):
        with pytest.raises(ValidationError) as err:
            bootstrap(RecordDataset(l=[1], v=[0], vhat=[1], y=[0]), replicates=10)
        assert str(err.value) == "bootstrap needs at least 2 rows"

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
        for replicates in (0, True):
            with pytest.raises(ValidationError, match="replicates"):
                bootstrap(data, replicates=replicates)
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

    @pytest.mark.parametrize("chunk", [1, 7, 402, 403, 404])
    @pytest.mark.parametrize("v_present", [True, False])
    def test_estimate_counts_across_chunk_sizes(self, m1_joint, monkeypatch, chunk, v_present):
        data = sample_dataset(m1_joint, 403, seed=23)
        if not v_present:
            data = without_v(data)
        want = estimate(data)
        monkeypatch.setattr(empirical, "_CHUNK", chunk)
        assert estimate(data) == want


class TestCountCodes:
    """``_count_codes``, which counts codes in pairs, against a plain ``bincount``."""

    @staticmethod
    def assert_counts(codes, width):
        got = empirical._count_codes(codes, width)
        want = np.bincount(codes, minlength=width)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 2 * empirical._CHUNK + 1])
    def test_random_codes(self, width, n):
        codes = np.random.default_rng(n).integers(0, width, n).astype(np.uint8)
        self.assert_counts(codes, width)

    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("tail", [[], [0], [7]])
    def test_every_pair_of_codes(self, width, tail):
        # every code in the first and in the second place of a pair
        pairs = itertools.product(range(width), repeat=2)
        codes = np.array([*itertools.chain.from_iterable(pairs), *tail], dtype=np.uint8)
        self.assert_counts(codes, width)

    @pytest.mark.parametrize("width,code", [(8, 0), (8, 7), (16, 0), (16, 7), (16, 15)])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 1001])
    def test_one_code_only(self, width, code, n):
        self.assert_counts(np.full(n, code, dtype=np.uint8), width)

    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("stop", [1000, 1001])
    def test_slice_at_an_odd_byte_offset(self, width, stop):
        codes = np.random.default_rng(stop).integers(0, width, 1002).astype(np.uint8)
        self.assert_counts(codes[1:stop], width)
        self.assert_counts(codes[3:stop], width)


class TestCodesAreContiguous:
    """``_count_codes`` views the codes as uint16, which a strided array refuses, so every
    way to build a dataset must give C-contiguous codes."""

    @staticmethod
    def assert_contiguous(data: RecordDataset):
        assert data.codes.flags.c_contiguous
        assert data.ystar is None or data.ystar.flags.c_contiguous

    @pytest.mark.parametrize("layout", ["list", "strided", "reversed"])
    def test_constructor(self, layout):
        columns = np.array([[0, 1, 1, 0, 1, 0, 0, 1]] * 5, dtype=np.int64)
        if layout == "strided":
            columns = columns[:, ::2]
        elif layout == "reversed":
            columns = columns[:, ::-1]
        l, v, vhat, y, ystar = columns.tolist() if layout == "list" else columns
        self.assert_contiguous(RecordDataset(l=l, vhat=vhat, y=y, v=v, ystar=ystar))
        self.assert_contiguous(RecordDataset(l=l, vhat=vhat, y=y))

    def test_parse_records(self):
        self.assert_contiguous(parse_records(BASIC))
        self.assert_contiguous(parse_records("l,v,vhat,y,ystar\n0,,1,1,1\n1,,0,1,0\n"))

    @pytest.mark.parametrize("text", [BASIC, BASIC.replace("\n", "\r\n", 2),
                                      "l,v,vhat,y,ystar\n0,1,1,1,1\n1,0,0,1,0\n"],
                             ids=["fixed-width", "text", "ystar"])
    def test_read_records_csv(self, tmp_path, text):
        path = tmp_path / "records.csv"
        path.write_text(text)
        self.assert_contiguous(read_records_csv(path))

    def test_sample_dataset(self, m1_joint):
        self.assert_contiguous(sample_dataset(m1_joint, 101, seed=2))

    def test_filter_ystar(self):
        data = parse_records("l,v,vhat,y,ystar\n0,1,1,1,1\n1,0,0,1,0\n1,1,0,0,1\n")
        self.assert_contiguous(filter_ystar(data))

    @pytest.mark.parametrize("indices", [[3, 3, 0], np.arange(4)[::-2], [], np.array([1, 2])])
    def test_take(self, indices):
        self.assert_contiguous(parse_records(BASIC).take(indices))


class TestResampleDraw:
    """A replicate's chunks draw exactly what one ``integers(0, n, size=n)`` call would."""

    @pytest.mark.parametrize("n", [2, 3, 1001, empirical._CHUNK - 1, empirical._CHUNK + 1,
                                   2 * empirical._CHUNK + 2])
    def test_stream_ends_where_one_call_ends(self, n):
        codes = np.random.default_rng(n).integers(0, 16, n).astype(np.uint8)
        stream, twin = derive_trial_stream(9, n), derive_trial_stream(9, n)
        counts = empirical._resample_counts(codes, stream, 16)
        idx = twin.integers(0, n, size=n)
        assert counts.tolist() == np.bincount(codes[idx], minlength=16).tolist()
        assert stream.random() == twin.random()


def random_joint_dataset(seed: int, n: int) -> RecordDataset:
    """``n`` rows drawn from a random joint; an odd ``seed`` zeroes about a third of its cells."""
    rng = np.random.default_rng(seed)
    cells = rng.random(16)
    if seed % 2:
        cells[rng.random(16) < 1 / 3] = 0.0
    return sample_dataset(FullJoint(cells=cells / cells.sum()), n, seed)


def hex_fields(obj) -> dict[str, str]:
    return {f.name: getattr(obj, f.name).hex() for f in fields(obj)}


class TestEstimateMatchesDataclassPath:
    """``estimate``, the observed table's row of the bootstrap's array pass, against the
    dataclass path (``fit_joint``, ``reduce`` and the report functions), the scalar
    ``gaps_from_joint`` oracle, and a transcription of the smoothed proxy rates."""

    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [20, 200, 5000])
    def test_with_v(self, n, smoothing):
        raised = 0
        for seed in range(12):
            data = random_joint_dataset(seed, n)
            joint = fit_joint(data, smoothing)
            try:
                model = reduce(joint)
            except ZeroMassCondition as want:
                with pytest.raises(ZeroMassCondition) as got:
                    estimate(data, smoothing)
                assert str(got.value) == str(want)
                raised += 1
                continue
            report = estimate(data, smoothing)
            assert hex_fields(report.gap) == hex_fields(compute_gaps(model))
            assert hex_fields(report.structure) == hex_fields(structure_params(model))
            assert hex_fields(report.bounds) == hex_fields(bound_report(model))
            assert report.g_hat.hex() == report.gap.G_hat.hex()
            oracle = gaps_from_joint(joint)
            for f in fields(oracle):
                assert abs(getattr(report.gap, f.name) - getattr(oracle, f.name)) <= 1e-12
        # unsmoothed, zero cells empty an event of some joints at every n; smoothed, none
        assert 0 < raised < 12 if smoothing == 0.0 else raised == 0

    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [20, 200, 5000])
    def test_without_v(self, n, smoothing):
        for seed in range(12):
            data = without_v(random_joint_dataset(seed, n))
            rates = []
            for l in (0, 1):
                rows = (data.l == l) & (data.vhat == 1)
                ones, zeros = int((rows & (data.y == 1)).sum()), int((rows & (data.y == 0)).sum())
                # Pr[y=1 | vhat=1, l] = (n(l,1,1) + s) / (n(l,1,0) + n(l,1,1) + 2 s)
                total = zeros + ones + 2.0 * smoothing
                if total == 0.0:
                    with pytest.raises(ZeroMassCondition) as got:
                        estimate(data, smoothing)
                    assert str(got.value) == f"conditioning event has zero mass: l={l}, vhat=1"
                    break
                rates.append((ones + smoothing) / total)
            else:
                assert estimate(data, smoothing).g_hat.hex() == (rates[1] - rates[0]).hex()


def threading_datasets(m1_joint) -> dict[str, RecordDataset]:
    """Datasets whose bootstraps must not depend on the thread count: with and without v,
    with skipped replicates each way, and one where every replicate degenerates."""
    keep = [i for i in range(16) if not (i >> 3 & 1 and i >> 2 & 1 and not (i >> 1 & 1))]
    return {
        "with-v": sample_dataset(m1_joint, 400, seed=17),
        "without-v": without_v(sample_dataset(m1_joint, 400, seed=17)),
        "skipped-with-v": all_combinations_dataset(),
        "skipped-without-v": RecordDataset(
            l=[0, 0, 0, 1, 1, 1], vhat=[1, 0, 0, 1, 1, 0], y=[1, 0, 1, 0, 1, 1]
        ),
        "all-degenerate": all_combinations_dataset().take(keep),
    }


def bootstrap_outcome(data, replicates, workers):
    """What a bootstrap returns, intervals as ``float.hex``, or the message it raises."""
    try:
        got = bootstrap(data, replicates, seed=3, workers=workers)
    except AllReplicatesDegenerate as exc:
        return str(exc)
    return list(got.intervals), hex_intervals(got.intervals), got.skipped


class Broken(Exception):
    pass


def fail_one_stride(m1_joint, monkeypatch, failing, error) -> list[int]:
    """Bootstrap 300 replicates on 3 threads, stride ``failing`` raising ``error(failing)`` at
    its first replicate once every stride has begun one. Checks that the caller gets that
    error, that no thread is left running or hands an error to ``threading.excepthook``,
    and returns the replicates the other strides drew."""
    data = sample_dataset(m1_joint, 400, seed=17)
    before = set(threading.enumerate())
    started, failed = threading.Barrier(3, timeout=10), threading.Event()
    drawn, escaped = [], []
    fill_counts = empirical._fill_counts

    def failing_fill(counts, codes, seed, first, step, failures):
        try:
            fill_counts(counts, codes, seed, first, step, failures)
        finally:
            if first == failing:
                failed.set()

    def stream(seed, i):
        if i < 3:  # each stride starts its first replicate, then one fails
            started.wait()
            if i == failing:
                raise error(i)
            assert failed.wait(10)
        drawn.append(i)
        return derive_trial_stream(seed, i)

    monkeypatch.setattr(empirical, "_cpus", lambda: 3)
    monkeypatch.setattr(empirical, "_fill_counts", failing_fill)
    monkeypatch.setattr(empirical, "derive_trial_stream", stream)
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    with pytest.raises(error) as err:
        bootstrap(data, 300, seed=1, workers=3)
    assert type(err.value) is error and err.value.args == (failing,)
    assert set(threading.enumerate()) == before
    assert escaped == []
    return sorted(drawn)


class TestThreadedBootstrap:
    """``workers`` threads draw the replicates; no result depends on how many."""

    @pytest.mark.parametrize("name", [
        "with-v", "without-v", "skipped-with-v", "skipped-without-v", "all-degenerate",
    ])
    def test_workers_never_change_results(self, m1_joint, monkeypatch, name):
        data = threading_datasets(m1_joint)[name]
        monkeypatch.setattr(empirical, "_cpus", lambda: 64)  # so every thread count runs
        want = bootstrap_outcome(data, 12, workers=1)
        if name == "all-degenerate":
            assert want == "all 12 bootstrap replicates hit zero-mass conditions"
        elif name.startswith("skipped"):
            assert 0 < want[2] < 12
        for workers in (2, 3, 12):
            assert bootstrap_outcome(data, 12, workers) == want, workers

    def test_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert empirical._cpus() == (os.cpu_count() or 1)

    def test_threads_under_frequent_switching(self, m1_joint, monkeypatch):
        data = sample_dataset(m1_joint, 3000, seed=4)
        monkeypatch.setattr(empirical, "_cpus", lambda: 64)
        monkeypatch.setattr(empirical, "_CHUNK", 97)  # many releases of the GIL a replicate
        want = bootstrap_outcome(data, 30, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = bootstrap_outcome(data, 30, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("workers, replicates, cpus", [(1, 10, 64), (5, 10, 1), (4, 1, 64)])
    def test_one_thread_starts_none(self, m1_joint, monkeypatch, workers, replicates, cpus):
        data = sample_dataset(m1_joint, 400, seed=17)

        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(empirical, "_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading, "Thread", refuse)
        got = bootstrap(data, replicates, seed=1, workers=workers)
        assert got.replicates == replicates

    @pytest.mark.parametrize("workers, replicates, cpus, threads", [
        (8, 3, 64, 3), (8, 50, 4, 4), (3, 50, 64, 3), (10**6, 5, 2, 2), (10**20, 4, 64, 4),
    ])
    def test_threads_are_capped_and_take_strided_replicates(
        self, m1_joint, monkeypatch, workers, replicates, cpus, threads
    ):
        data = sample_dataset(m1_joint, 400, seed=17)
        before = set(threading.enumerate())
        drawn: dict[int, int] = {}
        made = []

        def recording_stream(seed, i):
            drawn[i] = threading.get_ident()
            return derive_trial_stream(seed, i)

        class RecordingThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(threading, "Thread", RecordingThread)
        monkeypatch.setattr(empirical, "_cpus", lambda: cpus)
        monkeypatch.setattr(empirical, "derive_trial_stream", recording_stream)
        bootstrap(data, replicates, seed=1, workers=workers)
        # the calling thread takes one stride, so one thread fewer starts
        assert len(made) == threads - 1
        assert all(thread.ident is not None for thread in made)
        assert set(threading.enumerate()) == before
        assert sorted(drawn) == list(range(replicates))
        assert {drawn[i] for i in range(0, replicates, threads)} == {threading.get_ident()}
        for j in range(1, threads):
            strider = {drawn[i] for i in range(j, replicates, threads)}
            assert len(strider) == 1 and strider != {threading.get_ident()}

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_an_error_in_any_thread_reaches_the_caller_and_ends_the_others(
        self, m1_joint, monkeypatch, failing
    ):
        drawn = fail_one_stride(m1_joint, monkeypatch, failing, Broken)
        # each other stride finished the replicate it was drawing and stopped
        assert drawn == [i for i in range(3) if i != failing]

    def test_an_interrupt_in_the_calling_thread_reaches_the_caller_and_ends_the_others(
        self, m1_joint, monkeypatch
    ):
        assert fail_one_stride(m1_joint, monkeypatch, 0, KeyboardInterrupt) == [1, 2]

    @pytest.mark.parametrize("workers", [0, -1, True, 1.5, "2", None])
    def test_workers_are_checked_before_drawing(self, m1_joint, monkeypatch, workers):
        data = sample_dataset(m1_joint, 100, seed=1)

        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(empirical, "_resample_counts", no_draw)
        with pytest.raises(ValidationError) as err:
            bootstrap(data, 5, workers=workers)
        assert str(err.value) == f"workers must be a positive integer, got {workers!r}"


class TestEstimateWithBootstrap:
    def test_attaches_intervals(self, m1_joint):
        data = sample_dataset(m1_joint, 1000, seed=2)
        report = estimate_with_bootstrap(data, replicates=25, seed=6)
        assert report.bootstrap is not None
        assert report.bootstrap.replicates == 25

    def test_zero_replicates_means_no_bootstrap(self, m1_joint):
        data = sample_dataset(m1_joint, 1000, seed=2)
        assert estimate_with_bootstrap(data).bootstrap is None
        assert estimate_with_bootstrap(data, replicates=np.int64(0)).bootstrap is None

    @pytest.mark.parametrize("replicates", [
        -1, 0.5, "x", empirical.MAX_REPLICATES + 1,
        # none of these is 0, so none means "no bootstrap"
        0.0, None, [], "", False, np.array([1, 2]),
    ])
    def test_replicates_are_checked_before_the_point_estimate(self, replicates):
        # no v = 0 row in slice 0, so the point estimate raises ZeroMassCondition
        data = parse_records("l,v,vhat,y\n0,1,1,1\n1,1,1,0\n0,1,0,1\n1,0,1,1\n")
        with pytest.raises(ValidationError, match="^replicates "):
            estimate_with_bootstrap(data, replicates=replicates)

    @pytest.mark.parametrize("replicates", [0, 5])
    @pytest.mark.parametrize("workers", [0, -1, True, 1.5])
    def test_workers_are_checked_before_the_point_estimate(self, replicates, workers):
        data = parse_records("l,v,vhat,y\n0,1,1,1\n1,1,1,0\n0,1,0,1\n1,0,1,1\n")
        with pytest.raises(ValidationError) as err:
            estimate_with_bootstrap(data, replicates=replicates, workers=workers)
        assert str(err.value) == f"workers must be a positive integer, got {workers!r}"

    @pytest.mark.parametrize("replicates", [0, 5])
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "x", True])
    def test_seed_is_checked_before_the_point_estimate(self, replicates, seed):
        with pytest.raises(ValidationError) as expected:
            bootstrap(all_combinations_dataset(), 5, seed=seed)
        # both rows have v = 1, so the point estimate raises ZeroMassCondition
        data = parse_records("l,v,vhat,y\n0,1,1,1\n1,1,1,1\n")
        with pytest.raises(ValidationError) as err:
            estimate_with_bootstrap(data, replicates=replicates, seed=seed)
        assert str(err.value) == str(expected.value)

    def test_passes_workers_to_the_bootstrap(self, m1_joint, monkeypatch):
        data = sample_dataset(m1_joint, 400, seed=17)
        seen = []

        def recording_bootstrap(*args, workers, **kwargs):
            seen.append(workers)
            return bootstrap(*args, workers=workers, **kwargs)

        monkeypatch.setattr(empirical, "bootstrap", recording_bootstrap)
        one = estimate_with_bootstrap(data, replicates=8, seed=2, workers=1)
        three = estimate_with_bootstrap(data, replicates=8, seed=2, workers=3)
        assert seen == [1, 3]
        assert hex_intervals(one.bootstrap.intervals) == hex_intervals(three.bootstrap.intervals)
