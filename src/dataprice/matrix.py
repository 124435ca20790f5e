"""Dense feature matrix with named, provenance-tagged columns."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FeatureMatrix:
    """Row-per-product matrix. Every column carries a name and a tag naming
    the representation that produced it (e.g. "bow", "structured")."""

    values: np.ndarray
    columns: list[str]
    provenance: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if self.values.shape[1] != len(self.columns):
            raise ValueError("column count mismatch")
        if not np.isfinite(self.values).all():
            raise ValueError("feature matrix has a non-finite value (NaN or inf)")
        if not self.provenance:
            self.provenance = [""] * len(self.columns)
        if len(self.provenance) != len(self.columns):
            raise ValueError("provenance length mismatch")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def hstack(self, other: "FeatureMatrix") -> "FeatureMatrix":
        if other.n_rows != self.n_rows:
            raise ValueError("row count mismatch")
        return FeatureMatrix(
            np.hstack([self.values, other.values]),
            self.columns + other.columns,
            self.provenance + other.provenance,
        )

    def select(self, indices) -> "FeatureMatrix":
        indices = list(indices)
        return FeatureMatrix(
            self.values[:, indices],
            [self.columns[i] for i in indices],
            [self.provenance[i] for i in indices],
        )

    def rows(self, row_indices) -> "FeatureMatrix":
        return FeatureMatrix(self.values[row_indices], list(self.columns), list(self.provenance))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(self.columns)
            w.writerow(self.provenance)
            for row in self.values:
                w.writerow([format(x, ".12g") for x in row])

    @staticmethod
    def from_csv(path) -> "FeatureMatrix":
        with open(path, newline="", encoding="utf-8") as fh:
            r = csv.reader(fh)
            columns = next(r)
            provenance = next(r)
            rows = [[float(x) for x in line] for line in r]
        values = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
        return FeatureMatrix(values, columns, provenance)
