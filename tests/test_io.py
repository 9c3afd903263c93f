"""Ingestion, report rendering and plot-data emission."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citefit import CitationSample, HookedPowerLaw, OffsetError, ParseError
from citefit.io import (
    format_sig4,
    ingest,
    ingest_file,
    load_counts,
    render_plot_data,
    render_report,
)
from citefit.studies import PLAUSIBILITY_COLUMNS


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- ingestion ----------------------------------------------------------------

def test_ingest_plain_lines_with_offset(tmp_path):
    path = _write(tmp_path, "counts.txt", "0\n3\n12\n")
    sample = ingest_file(path, offset=1)
    assert list(sample.counts) == [1, 4, 13]


def test_ingest_negative_count_reports_line(tmp_path):
    path = _write(tmp_path, "bad.txt", "-2\n5\n")
    with pytest.raises(ParseError) as err:
        ingest_file(path)
    assert err.value.line_number == 1


def test_ingest_non_integer_reports_line(tmp_path):
    path = _write(tmp_path, "bad.txt", "3\n4.5\n")
    with pytest.raises(ParseError) as err:
        ingest_file(path)
    assert err.value.line_number == 2


def test_ingest_zero_with_zero_offset_rejected():
    with pytest.raises(OffsetError):
        ingest([0, 3], offset=0)
    sample = ingest([1, 3], offset=0)   # fine without zeros
    assert list(sample.counts) == [1, 3]


def test_ingest_rejects_counts_beyond_the_ceiling():
    assert ingest([2 ** 62 - 1]).counts[0] == 2 ** 62
    for counts, offset in (([2 ** 62], 1), ([2 ** 63 - 1], 1), ([10 ** 20], 0),
                           ([0], 2 ** 62 + 1)):
        with pytest.raises(ParseError, match="exceeds the largest supported count"):
            ingest(counts, offset=offset)


def test_ingest_empty_file_rejected(tmp_path):
    path = _write(tmp_path, "empty.txt", "\n\n")
    with pytest.raises(ParseError):
        ingest_file(path)


def test_ingest_csv_with_header(tmp_path):
    path = _write(tmp_path, "data.csv", "id,citations\na,0\nb,7\nc,33\n")
    sample = ingest_file(path, offset=1)
    assert list(sample.counts) == [1, 8, 34]
    assert sample.label == "data"     # the file's stem


def test_ingest_csv_bad_cell_reports_line(tmp_path):
    path = _write(tmp_path, "data.csv", "citations\n4\nx\n")
    with pytest.raises(ParseError) as err:
        ingest_file(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("text", [
    b"\xef\xbb\xbf3\n0\n",                                  # byte-order mark
    b"\xef\xbb\xbfcitations\n3\n0\n",
    b'"id","citations"\n"a",3\nb,"0"\n',                    # quoted header cells
    b'\xef\xbb\xbf"Citations",id\n3,x\n0,y\n',
])
def test_ingest_bom_and_quoted_csv_header(tmp_path, text):
    path = tmp_path / "counts.csv"
    path.write_bytes(text)
    assert list(ingest_file(path).counts) == [4, 1]


def test_ingest_bytes_that_are_not_utf8_report_their_line(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_bytes(b"3\n\xff4\n")
    with pytest.raises(ParseError) as err:
        ingest_file(path)
    assert err.value.line_number == 2


def test_ingest_unrecognised_header(tmp_path):
    path = _write(tmp_path, "data.csv", "id,cites\n1,2\n")
    with pytest.raises(ParseError) as err:
        ingest_file(path)
    assert err.value.line_number == 1


@pytest.mark.parametrize("call,error,message", [
    (lambda tmp: ingest_file(_write(tmp, "c.csv", "id,citations\na,3\nb\n")),
     ParseError, "missing 'citations' cell"),
    (lambda tmp: ingest([0, 3], offset=-1), OffsetError, "offset must be non-negative, got -1"),
    (lambda tmp: ingest([3, -2]), ParseError, "negative count: -2"),
    (lambda tmp: render_report([{"a": 1}], "xml"), ValueError, "unknown report format 'xml'"),
], ids=["csv-missing-cell", "negative-offset", "negative-count", "report-format"])
def test_bad_input_is_rejected(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)


_HEADER_MESSAGE = "line 1: expected an integer count or a CSV header with a 'citations' column"


# int() alone reads '1_000' and '\u0663' as counts; a line of over 4,300
# digits keeps its message, and one beyond the csv module's field limit
# is a parse error too, on its line; only LF ends a line, so a form feed or
# U+2028 inside one leaves it not a count
@pytest.mark.parametrize("text,message", [
    ("1_000\n5\n", _HEADER_MESSAGE),
    ("5\n1_000\n", "line 2: not an integer: '1_000'"),
    ("id,citations\na,3\nb,\u0663\n", "line 3: not an integer: '\u0663'"),
    ("1" * 5000 + "\n7\n", _HEADER_MESSAGE),
    ("7\n" + "1" * 5000 + "\n", f"line 2: not an integer: '{'1' * 5000}'"),
    ("1" * 200_000 + "\n", "line 1: field larger than field limit (131072)"),
    ("citations\n3\n" + "1" * 200_000 + "\n", "line 3: field larger than field limit (131072)"),
    ("\n\nid,cites\n1,2\n", _HEADER_MESSAGE.replace("line 1", "line 3")),
    ("3\x0c4\n5\n", _HEADER_MESSAGE),
    ("5\n3\x0c4\n", "line 2: not an integer: '3\\x0c4'"),
    ("5\n3\u20284\n", "line 2: not an integer: '3\\u20284'"),
], ids=["underscore-first", "underscore", "arabic-indic-digit", "over-4300-digits-first",
        "over-4300-digits", "huge-first-line", "huge-csv-cell", "header-after-blank-lines",
        "form-feed-first", "form-feed", "line-separator"])
def test_count_rule_messages(tmp_path, text, message):
    with pytest.raises(ParseError) as err:
        ingest_file(_write(tmp_path, "counts.csv", text))
    assert str(err.value) == message


def test_a_signed_count_reads_as_its_value(tmp_path):
    assert load_counts(_write(tmp_path, "c.txt", "+3\n-0\n 12 \n")) == [3, 0, 12]


_COUNT = re.compile(r"[+-]?[0-9]{1,4300}")
_LINES = st.one_of(
    st.text(st.sampled_from("0123456789+-_ \u0663\u096b\uff15"), max_size=10),
    st.builds(lambda sign, k, tail: sign + "7" * k + tail, st.sampled_from(["", "+", "-"]),
              st.integers(4298, 4302), st.sampled_from(["", "_0", "\u0663"])),
)


# A line is a count exactly when it is an optional sign and 1 to 4,300 ASCII
# digits: as the second line of a plain file and as a CSV cell alike.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(first=st.sampled_from(["5", "citations"]), line=_LINES)
@example(first="5", line="+" + "7" * 4300)
@example(first="citations", line="7" * 4301)
def test_a_line_fails_as_not_an_integer_exactly_off_the_count_rule(first, line):
    text = line.strip()
    if not text:
        return      # a blank line is skipped
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "counts.txt")
        path.write_text(f"{first}\n{line}\n", encoding="utf-8")
        try:
            counts, message = load_counts(path), None
        except ParseError as err:
            counts, message = None, str(err)
    if _COUNT.fullmatch(text) is None:
        assert message == f"line 2: not an integer: {text!r}"
    elif int(text) < 0:
        assert message == f"line 2: negative count: {int(text)}"
    else:
        assert counts[-1] == int(text)


def test_ingest_preserves_cardinality(tmp_path):
    counts = list(np.random.default_rng(0).integers(0, 50, size=500))
    path = _write(tmp_path, "counts.txt", "\n".join(map(str, counts)) + "\n")
    sample = ingest_file(path)
    assert len(sample) == 500


# --- report rendering -----------------------------------------------------------

def test_format_sig4():
    assert format_sig4(0.123456) == "0.1235"
    assert format_sig4(123456.0) == "1.235e+05"
    assert format_sig4(3) == "3"
    assert format_sig4(None) == "NA"
    assert format_sig4(float("nan")) == "NA"
    assert format_sig4(True) == "true"
    assert format_sig4("x") == "x"


def test_tsv_has_header_block_and_column_order():
    rows = [dict.fromkeys(PLAUSIBILITY_COLUMNS, 1.0)]
    rows[0]["subject"] = "Demo"
    text = render_report(rows, "tsv", header={"master_seed": 7, "reps": 50},
                         columns=list(PLAUSIBILITY_COLUMNS))
    lines = text.splitlines()
    assert lines[0].startswith("# tool_version\t")
    assert "# master_seed\t7" in lines
    assert "# reps\t50" in lines
    header_line = [l for l in lines if not l.startswith("#")][0]
    assert header_line.split("\t") == list(PLAUSIBILITY_COLUMNS)


def test_tsv_escapes_what_would_split_a_cell_or_a_row():
    rows = [{"label": "a\tb\\c\nd\re", "x": 1.0}]
    text = render_report(rows, "tsv", header={"source": "x\ty\nz"})
    assert text.splitlines()[1:] == ["# source\tx\\ty\\nz", "label\tx", "a\\tb\\\\c\\nd\\re\t1"]
    assert json.loads(render_report(rows, "json"))["rows"] == rows


def test_tsv_empty_rows_header_only():
    text = render_report([], "tsv", header={"master_seed": 1})
    assert all(line.startswith("#") for line in text.splitlines())


def test_json_round_trip():
    rows = [{"a": 1, "b": 0.25, "c": "x", "d": None},
            {"a": 2, "b": 1e-9, "c": "y", "d": 4.0}]
    text = render_report(rows, "json", header={"master_seed": 3})
    parsed = json.loads(text)
    assert parsed["rows"] == rows
    assert parsed["header"]["master_seed"] == 3
    assert "tool_version" in parsed["header"]


def _no_constants(name):
    raise AssertionError(f"{name} is not valid JSON")


def test_json_writes_non_finite_floats_as_null():
    rows = [{"a": math.nan, "b": np.float64(math.inf), "c": -math.inf, "d": 1.5}]
    text = render_report(rows, "json", header={"fraction": math.nan})
    doc = json.loads(text, parse_constant=_no_constants)
    assert doc["rows"] == [{"a": None, "b": None, "c": None, "d": 1.5}]
    assert doc["header"]["fraction"] is None


def test_json_full_precision():
    value = 0.123456789012345678
    text = render_report([{"v": value}], "json")
    assert json.loads(text)["rows"][0]["v"] == value


def test_json_writes_numpy_integers_as_numbers():
    assert json.loads(render_report([{"n": np.int64(3)}], "json"))["rows"] == [{"n": 3}]


# --- plot data -------------------------------------------------------------------

def test_plot_data_two_point_oracle():
    text = render_plot_data(HookedPowerLaw(2.0, 1.0), CitationSample([1, 2]))
    lines = text.splitlines()
    assert lines[0] == "x,empirical_cdf,model_cdf"
    assert len(lines) == 3
    x, emp, mod = lines[2].split(",")
    assert x == "2"
    assert float(emp) == 1.0
    assert float(mod) == pytest.approx(0.5599, abs=1e-4)


def test_plot_data_columns_non_decreasing():
    model = HookedPowerLaw(3.0, 10.0)
    sample = CitationSample(model.sample(2000, 3))
    lines = render_plot_data(model, sample).splitlines()[1:]
    emp = [float(l.split(",")[1]) for l in lines]
    mod = [float(l.split(",")[2]) for l in lines]
    assert emp[-1] == 1.0
    assert all(b >= a for a, b in zip(emp, emp[1:]))
    assert all(b >= a for a, b in zip(mod, mod[1:]))
