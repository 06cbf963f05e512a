"""Lossless CSV emission and parsing for experiment tables.

Values are written with 17 significant digits ('.17g'), which round-trips
every finite double exactly; 'inf' and 'nan' round-trip as well.  The
decimal separator is always '.' regardless of locale.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ContractViolationError
from ..series import SeriesTable


def format_value(x) -> str:
    return format(float(x), ".17g")


def emit_csv(table: SeriesTable, destination) -> None:
    """Write a SeriesTable as CSV (header + one line per row).

    ``destination`` is a path or an open text stream.  The file is
    newline-terminated.  I/O errors propagate as OSError; the CLI maps
    them to its I/O exit status.
    """
    if len(table) == 0:
        raise ContractViolationError("refusing to emit a CSV with no rows")
    if hasattr(destination, "write"):
        _write(table, destination)
    else:
        with open(os.fspath(destination), "w", encoding="ascii", newline="\n") as stream:
            _write(table, stream)


def _write(table, stream):
    # One '%' per row, which gives each value the text format_value gives
    # it; rows go out one at a time, so no whole-file string is built.
    line = ",".join(["%.17g"] * len(table.columns)) + "\n"
    stream.write(",".join(table.columns) + "\n")
    for row in table.rows.tolist():
        stream.write(line % tuple(row))


def parse_csv(source) -> SeriesTable:
    """Read a CSV written by emit_csv back into a SeriesTable."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(os.fspath(source), "r", encoding="ascii") as stream:
            lines = stream.read().splitlines()
    if not lines:
        raise ContractViolationError("empty CSV input")
    columns = lines[0].split(",")
    rows = []
    for k, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ContractViolationError(f"line {k}: expected {len(columns)} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ContractViolationError(f"line {k}: {exc}") from None
    return SeriesTable(columns, np.reshape(rows, (-1, len(columns))))
