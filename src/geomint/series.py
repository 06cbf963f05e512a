"""A minimal named-column table for experiment output.

Every experiment and diagnostic in this package reports its results as a
SeriesTable: an ordered list of column names plus rows of values.  Rows
of a time series (first column named ``t``) must be strictly increasing
in time; other tables (convergence studies, benchmark summaries) may
order their first column however they like.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


class SeriesTable:
    def __init__(self, columns):
        columns = list(columns)
        if not columns:
            raise ContractViolationError("a SeriesTable needs at least one column")
        if len(set(columns)) != len(columns):
            raise ContractViolationError(f"duplicate column names in {columns}")
        self.columns = columns
        self.rows = []

    def append(self, values):
        values = list(values)
        if len(values) != len(self.columns):
            raise ContractViolationError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        if self.columns[0] == "t" and self.rows:
            if not float(values[0]) > float(self.rows[-1][0]):
                raise ContractViolationError(
                    f"time column must increase strictly: {values[0]} after {self.rows[-1][0]}"
                )
        self.rows.append(values)

    @classmethod
    def from_columns(cls, columns, values):
        """A table whose j-th column holds ``values[j]``, one equal-length
        1-d sequence per column; its rows are lists of Python floats.  A
        time column is checked once, as append() checks it row by row.
        """
        table = cls(columns)
        arrays = [np.asarray(v, dtype=float) for v in values]
        if len(arrays) != len(table.columns) or len({a.shape for a in arrays}) != 1 \
                or arrays[0].ndim != 1:
            raise ContractViolationError(
                f"need {len(table.columns)} columns of one length, got {[a.shape for a in arrays]}"
            )
        stacked = np.column_stack(arrays)
        t = stacked[:, 0]
        if table.columns[0] == "t" and not np.all(t[1:] > t[:-1]):
            raise ContractViolationError("time column must increase strictly")
        table.rows = stacked.tolist()
        return table

    def column(self, name):
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ContractViolationError(f"no column named {name!r}") from None
        return np.array([row[idx] for row in self.rows], dtype=float)

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"SeriesTable(columns={self.columns}, rows={len(self.rows)})"
