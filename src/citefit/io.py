r"""Count-file ingestion and report/plot-data emission.

A count file is read in one pass: its first non-blank line is a count (the
file is plain, one count per line) or a CSV header naming a ``citations``
column (cells may be quoted), which every later row gives. A count is an
optional sign and 1 to 4,300 ASCII digits (Python's limit on integer text);
a file's stem labels its sample. Reports are TSV (tab separators, '.'
decimals, 4 significant figures, fixed column order; a backslash, tab, CR
or LF in a string cell or header value is written ``\\``, ``\t``, ``\r``,
``\n``) or JSON (full precision); both carry a header block with the tool
version, master seed and rep count.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import sys
from typing import Mapping

import numpy as np

from citefit import __version__
from citefit.distributions import MAX_COUNT
from citefit.exceptions import OffsetError, ParseError
from citefit.gof import cdf_breakpoints
from citefit.sample import CitationSample


def load_counts(path) -> list[int]:
    """Raw (pre-offset) counts from a plain-lines or CSV file, in one pass."""
    # utf-8-sig drops a leading byte-order mark; a byte that is not UTF-8
    # reads as U+FFFD, which fails as a count or a header on its line; text
    # mode reads CRLF and CR as LF, the one line end (a form feed is not one)
    with open(path, "r", encoding="utf-8-sig", errors="replace") as handle:
        lines = handle.read().split("\n")
    column, counts = None, []   # column: the 'citations' cell of a CSV row
    try:
        for no, line in enumerate(lines, 1):
            if not (text := line.strip()):
                continue
            if column is not None:
                cells = next(csv.reader([text]))
                if column >= len(cells):
                    raise ParseError("missing 'citations' cell", line_number=no)
                text = cells[column].strip()
            try:    # int() alone would also take '_' and non-ASCII digits
                value = int(text) if text.isascii() and "_" not in text else None
            except ValueError:      # not a sign and digits, or over 4,300 digits
                value = None
            if value is None and column is None and not counts:
                names = [c.strip().lower() for c in next(csv.reader([text]))]
                if "citations" not in names:
                    raise ParseError("expected an integer count or a CSV header with a "
                                     "'citations' column", line_number=no)
                column = names.index("citations")
            elif value is None:
                raise ParseError(f"not an integer: {text!r}", line_number=no)
            elif value < 0:
                raise ParseError(f"negative count: {value}", line_number=no)
            else:
                counts.append(value)
    except csv.Error as err:    # a cell beyond the csv module's field size limit
        raise ParseError(str(err), line_number=no) from None
    if not counts:
        raise ParseError("file contains no counts" if column is None
                         else "CSV file contains no data rows")
    return counts


def ingest(counts, offset: int = 1, label: str = "") -> CitationSample:
    """Map raw counts c to c + offset, at most ``MAX_COUNT``. The range is
    checked on Python integers, before int64."""
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
    return CitationSample(np.asarray(counts, dtype=np.int64) + offset, label=label)


def ingest_file(path, offset: int = 1) -> CitationSample:
    """The counts of file ``path``, labelled with its name without extension."""
    label = os.path.splitext(os.path.basename(path))[0]
    return ingest(load_counts(path), offset=offset, label=label)


# --- report emission --------------------------------------------------------

# A backslash, tab, CR or LF in a TSV string would end its cell or its row.
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r", "\n": "\\n"})


def format_sig4(value) -> str:
    """Table cell formatting: 4 significant figures for floats, strings escaped."""
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
    return str(value).translate(_TSV_ESCAPES)


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
        out.write(f"# {key}\t{'NA' if nan else str(value).translate(_TSV_ESCAPES)}\n")
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


def _write(text: str, path: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when it is "-"."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
