"""A minimal named-column table for experiment output.

Every experiment and diagnostic in this package reports its results as a
SeriesTable: an ordered list of column names plus one read-only (n, k)
float64 array of rows.  Rows of a time series (first column named ``t``)
must be strictly increasing in time; other tables (convergence studies,
benchmark summaries) may order their first column however they like.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


class SeriesTable:
    """Columns ``columns`` over the read-only (n, k) float64 array ``rows``.

    ``rows`` is anything numpy turns into an (n, len(columns)) float array:
    a list of rows or a stacked array.  The table keeps its own read-only
    copy, so ``rows[i]`` is record i and ``column(name)`` a read-only view.
    Refused with ContractViolationError: no columns, duplicate names, rows
    of another shape and a ``t`` column that does not increase strictly.
    """

    def __init__(self, columns, rows):
        columns = list(columns)
        if not columns:
            raise ContractViolationError("a SeriesTable needs at least one column")
        if len(set(columns)) != len(columns):
            raise ContractViolationError(f"duplicate column names in {columns}")
        try:
            rows = np.array(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ContractViolationError(f"rows do not form an array of floats: {exc}") from None
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise ContractViolationError(
                f"rows must have shape (n, {len(columns)}) for columns {columns}, got {rows.shape}"
            )
        t = rows[:, 0]
        if columns[0] == "t" and not np.all(t[1:] > t[:-1]):
            raise ContractViolationError("time column must increase strictly")
        rows.flags.writeable = False
        self.columns = columns
        self.rows = rows

    def column(self, name):
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ContractViolationError(f"no column named {name!r}") from None
        return self.rows[:, idx]

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"SeriesTable(columns={self.columns}, rows={len(self.rows)})"
