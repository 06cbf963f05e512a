"""Lossless CSV emission and parsing for experiment tables.

Values are written with 17 significant digits ('.17g'), which round-trips
every finite double exactly; 'inf' and 'nan' round-trip as well.  The
decimal separator is always '.' regardless of locale.

Both directions hold one block of ``_BLOCK_ROWS`` rows as Python objects
at a time, never the whole table, so their memory beyond the table's own
array does not grow with its length.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ContractViolationError
from ..series import SeriesTable

_BLOCK_ROWS = 1024  # rows formatted, or parsed, per block
_READ_CHARS = 1 << 16  # characters taken from a source per read


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
    # it; each block of rows goes out as one string.
    line = ",".join(["%.17g"] * len(table.columns)) + "\n"
    stream.write(",".join(table.columns) + "\n")
    rows = table.rows
    for start in range(0, len(rows), _BLOCK_ROWS):
        stream.write("".join([line % tuple(row) for row in rows[start:start + _BLOCK_ROWS].tolist()]))


def parse_csv(source) -> SeriesTable:
    """Read a CSV written by emit_csv back into a SeriesTable.

    ``source`` is a path or an object whose ``read(size)`` returns text.
    Lines are split as ``str.splitlines`` splits the whole text, and a
    malformed line is reported with its number in that text.
    """
    if hasattr(source, "read"):
        return _parse(_lines(source))
    with open(os.fspath(source), "r", encoding="ascii") as stream:
        return _parse(_lines(stream))


def _lines(stream):
    """The lines of ``stream``'s text, read in pieces of ``_READ_CHARS``.

    Each piece is cut after its last '\\n', where a line always ends, and
    the rest waits for the next piece: so no '\\r\\n' is split in two and
    the lines are those of ``str.splitlines`` on the whole text.
    """
    rest = ""
    while chunk := _read(stream):
        head, newline, rest = (rest + chunk).rpartition("\n")
        yield from (head + newline).splitlines()
    yield from rest.splitlines()


def _read(stream):
    # Bytes that are not ASCII are bad input, reported as the parse errors
    # are, not as the UnicodeDecodeError of the stream's decoder.
    try:
        return stream.read(_READ_CHARS)
    except UnicodeDecodeError as exc:
        raise ContractViolationError(f"CSV input is not ASCII: {exc}") from None


def _parse(lines):
    header = next(lines, None)
    if header is None:
        raise ContractViolationError("empty CSV input")
    columns = header.split(",")
    blocks, block = [], []
    for k, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ContractViolationError(f"line {k}: expected {len(columns)} fields, got {len(parts)}")
        try:
            block.append([float(p) for p in parts])
        except ValueError as exc:
            raise ContractViolationError(f"line {k}: {exc}") from None
        if len(block) == _BLOCK_ROWS:
            blocks.append(np.array(block))
            block = []
    blocks.append(np.reshape(block, (-1, len(columns))))
    rows = np.concatenate(blocks)
    del blocks  # the table's copy is made next; the blocks need not outlive it
    return SeriesTable(columns, rows)
