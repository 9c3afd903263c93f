"""Count-file ingestion and report/plot-data emission.

Input formats: plain text with one non-negative integer per line, or CSV
with a header row naming a ``citations`` column. Reports are emitted as
TSV (tab separators, '.' decimals, 4 significant figures, fixed column
order) or JSON (full precision); both carry a header block with the tool
version, master seed and rep count.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import sys
from typing import Mapping

import numpy as np

from citefit import __version__
from citefit.distributions import MAX_COUNT
from citefit.exceptions import OffsetError, ParseError
from citefit.gof import cdf_breakpoints
from citefit.sample import CitationSample

PLAIN, CSV_WITH_HEADER = "plain", "csv"


def detect_format(first_line: str) -> str:
    stripped = first_line.strip()
    if _parse_int(stripped) is not None:
        return PLAIN
    if "citations" in _header_names(stripped):
        return CSV_WITH_HEADER
    raise ParseError(
        "expected an integer count or a CSV header with a 'citations' column",
        line_number=1,
    )


def _header_names(line: str) -> list[str]:
    """CSV header cells, read like the data rows (quotes allowed), lowercased."""
    return [c.strip().lower() for c in next(csv.reader([line]))]


def _parse_int(text: str) -> int | None:
    try:
        return int(text, 10)
    except ValueError:
        return None


def load_counts(path) -> list[int]:
    """Raw (pre-offset) counts from a plain-lines or CSV file."""
    # utf-8-sig drops a leading byte-order mark; a byte that is not UTF-8
    # reads as U+FFFD, which fails as a count or a header on its line
    with open(path, "r", encoding="utf-8-sig", errors="replace") as handle:
        lines = handle.read().splitlines()
    stripped = [(no, line.strip()) for no, line in enumerate(lines, 1) if line.strip()]
    if not stripped:
        raise ParseError("file contains no counts")
    column = None
    if detect_format(stripped[0][1]) == CSV_WITH_HEADER:
        column = _header_names(stripped[0][1]).index("citations")
        stripped = stripped[1:]
        if not stripped:
            raise ParseError("CSV file contains no data rows")
    counts = []
    for no, text in stripped:
        if column is not None:
            cells = next(csv.reader([text]))
            if column >= len(cells):
                raise ParseError("missing 'citations' cell", line_number=no)
            text = cells[column].strip()
        value = _parse_int(text)
        if value is None:
            raise ParseError(f"not an integer: {text!r}", line_number=no)
        if value < 0:
            raise ParseError(f"negative count: {value}", line_number=no)
        counts.append(value)
    return counts


def ingest(counts, offset: int = 1, label: str = "") -> CitationSample:
    """Map raw counts c to c + offset, at most ``MAX_COUNT``, and record the
    offset. The range is checked on Python integers, before int64."""
    if offset < 0:
        raise OffsetError(f"offset must be non-negative, got {offset}")
    low, top = int(min(counts, default=1)), int(max(counts, default=0))
    if low < 0:
        raise ParseError(f"negative count: {low}")
    if top + offset > MAX_COUNT:
        raise ParseError(f"count {top} plus offset {offset} exceeds the largest "
                         f"supported count 2**62")
    if offset == 0 and low == 0:
        raise OffsetError("offset 0 with zero counts present; support starts at 1")
    return CitationSample(np.asarray(counts, dtype=np.int64) + offset,
                          offset_applied=offset, label=label)


def ingest_file(path, offset: int = 1, label: str | None = None) -> CitationSample:
    return ingest(load_counts(path), offset=offset,
                  label=label if label is not None else str(path))


# --- report emission --------------------------------------------------------

def format_sig4(value) -> str:
    """Table cell formatting: 4 significant figures for floats."""
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return "NA"
        return f"{v:.4g}"
    return str(value)


def _json_cell(value):
    """A report cell for JSON: NumPy scalars as Python numbers, and a
    non-finite float as null (JSON has no NaN or infinity; TSV writes NA)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


def render_report(rows, fmt: str = "tsv", header: Mapping | None = None,
                  columns=None) -> str:
    """Render rows to TSV or JSON text (see module docstring)."""
    rows = list(rows)
    header = {"tool_version": __version__, **dict(header or {})}
    if fmt == "json":
        doc = {"header": {k: _json_cell(v) for k, v in header.items()},
               "rows": [{k: _json_cell(v) for k, v in row.items()} for row in rows]}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if fmt != "tsv":
        raise ValueError(f"unknown report format {fmt!r}")
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    out = _io.StringIO()
    for key, value in header.items():
        nan = isinstance(value, (float, np.floating)) and math.isnan(value)
        out.write(f"# {key}\t{'NA' if nan else value}\n")
    if columns:
        out.write("\t".join(columns) + "\n")
        for row in rows:
            out.write("\t".join(format_sig4(row.get(c)) for c in columns) + "\n")
    return out.getvalue()


def render_plot_data(model, sample) -> str:
    """CSV of x, empirical_cdf, model_cdf at the ``cdf_breakpoints``."""
    out = _io.StringIO()
    out.write("x,empirical_cdf,model_cdf\n")
    for x, e, t in zip(*cdf_breakpoints(model, sample)):
        out.write(f"{int(x)},{float(e)!r},{float(t)!r}\n")
    return out.getvalue()


def _write(text: str, destination) -> None:
    """Write ``text`` to a path, a file object or ("-" or None) stdout."""
    if destination is None or destination == "-":
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
