"""Ingestion, report rendering and plot-data emission."""

import json
import math

import numpy as np
import pytest

from citefit import CitationSample, HookedPowerLaw, OffsetError, ParseError
from citefit.io import (
    format_sig4,
    ingest,
    ingest_file,
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
    assert sample.offset_applied == 1


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
    sample = ingest_file(path, offset=1, label="csv")
    assert list(sample.counts) == [1, 8, 34]
    assert sample.label == "csv"


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
