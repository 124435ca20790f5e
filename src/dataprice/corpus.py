"""Product listings: loading, text composition, structured encoding,
targets, and descriptive statistics."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .matrix import FeatureMatrix

INDUSTRIES = [
    "E-commerce and Business",
    "Retail and Location",
    "Financial Services",
    "Healthcare and Life Sciences",
    "Resources",
    "Public Sector",
    "Media and Entertainment",
    "Telecommunications",
    "Cars and Automotive",
    "Manufacturing",
    "Environmental",
    "Gaming",
]

STRUCTURED_COLUMNS = [
    "listed_provider",
    "volume",
    "historical_version",
    "future_version",
    "sensitive",
    "data_sample",
    "support_email",
    "support_url",
    "refund_policy",
]

INDUSTRY_COLUMNS = ["industry_%d" % i for i in range(12)]

# Observed tier boundaries reported for the original marketplace crawl,
# kept as a named fixture for tests and demos.
REFERENCE_TIER_CUTPOINTS = [208.33, 416.67, 1250.0, 3175.0]


class CorpusError(ValueError):
    pass


@dataclass
class DataProduct:
    id: str
    name: str
    detail: str
    description: str
    listed_provider: int
    volume: int
    historical_version: int
    future_version: int
    sensitive: int
    data_sample: int
    support_email: int
    support_url: int
    refund_policy: int
    price: float
    industry_scores: list[float] | None = None

    def __post_init__(self):
        if not (0 < self.price < math.inf):
            raise CorpusError("price must be positive and finite, got %r"
                              % (self.price,))
        if self.refund_policy not in (0, 1, 2, 3, 4):
            raise CorpusError("refund_policy outside [0,4]: %r" % (self.refund_policy,))
        if self.volume < 1:
            raise CorpusError("volume must be >= 1, got %r" % (self.volume,))
        if self.historical_version not in (0, 1, 2):
            raise CorpusError("historical_version outside {0,1,2}")
        if self.sensitive not in (0, 1, 2):
            raise CorpusError("sensitive outside {0,1,2}")
        for flag in ("listed_provider", "future_version", "data_sample",
                     "support_email", "support_url"):
            if getattr(self, flag) not in (0, 1):
                raise CorpusError("%s must be 0 or 1" % flag)
        if self.industry_scores is not None:
            self._check_industry(self.industry_scores)

    @staticmethod
    def _check_industry(scores):
        if len(scores) != 12:
            raise CorpusError("industry_scores must have 12 entries")
        if not all(math.isfinite(s) for s in scores):
            raise CorpusError("industry scores must be finite")
        if any(s < 0 or s > 1 for s in scores):
            raise CorpusError("industry scores must lie in [0,1]")
        if abs(max(scores) - 1.0) > 1e-9:
            raise CorpusError("industry scores must have max exactly 1.0")


@dataclass
class TargetSpec:
    kind: str  # "regression" | "classification"
    log_transform: bool = True
    tier_cutpoints: list[float] | None = None

    def __post_init__(self):
        if self.kind not in ("regression", "classification"):
            raise CorpusError("unknown target kind %r" % self.kind)
        if self.tier_cutpoints is not None:
            cp = self.tier_cutpoints
            if len(cp) != 4 or any(a >= b for a, b in zip(cp, cp[1:])):
                raise CorpusError("tier_cutpoints must be 4 strictly ascending values")


@dataclass
class DescriptiveStats:
    """Per-feature summary; skewness/kurtosis are NaN for constant columns."""

    features: list[str]
    mean: list[float]
    std: list[float]
    max: list[float]
    min: list[float]
    skewness: list[float]
    kurtosis: list[float]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["Feature", "Average", "Std", "Max", "Min", "Skewness", "Kurtosis"])
            for i, name in enumerate(self.features):
                row = [name]
                for col in (self.mean, self.std, self.max, self.min,
                            self.skewness, self.kurtosis):
                    v = col[i]
                    row.append("undefined" if isinstance(v, float) and math.isnan(v)
                               else format(v, ".6g"))
                w.writerow(row)


_REQUIRED_FIELDS = ["id", "name", "detail", "description"] + STRUCTURED_COLUMNS + ["price"]
_INT_FIELDS = set(STRUCTURED_COLUMNS)
_FIELDS = [f.name for f in fields(DataProduct)]


def industry_scores_of(rec: dict, row_index: int) -> list[float] | None:
    """The 12 industry scores of a raw record, or None when it has none: its
    industry_scores list, or the JSON text of one as a CSV cell holds it,
    else its industry_0..industry_11 columns when every one is filled."""
    raw = rec.get("industry_scores")
    if not raw:
        raw = [rec.get(c) for c in INDUSTRY_COLUMNS]
        if any(v is None or not str(v).strip() for v in raw):
            return None
    try:
        scores = json.loads(raw) if isinstance(raw, str) else raw
        if isinstance(scores, list) and len(scores) == 12:
            return [float(s) for s in scores]
    except (TypeError, ValueError):  # json.JSONDecodeError is a ValueError
        pass
    raise CorpusError("row %d: industry_scores must be 12 numbers, got %.80r"
                      % (row_index, raw))


def _product_from_record(rec: dict, row_index: int) -> DataProduct:
    missing = [f for f in _REQUIRED_FIELDS if f not in rec]
    if missing:
        raise CorpusError("row %d: missing required column(s) %s" % (row_index, ", ".join(missing)))
    kwargs = {}
    for f in _REQUIRED_FIELDS:
        v = rec[f]
        if f in _INT_FIELDS:
            try:
                kwargs[f] = int(v)
            except (TypeError, ValueError):
                raise CorpusError("row %d: non-integer value %r for %s" % (row_index, v, f))
        elif f == "price":
            try:
                kwargs[f] = float(v)
            except (TypeError, ValueError):
                raise CorpusError("row %d: non-numeric price %r" % (row_index, v))
        else:
            kwargs[f] = str(v)
    scores = industry_scores_of(rec, row_index)
    if scores is not None:
        kwargs["industry_scores"] = scores
    try:
        return DataProduct(**kwargs)
    except CorpusError as exc:
        raise CorpusError("row %d: %s" % (row_index, exc))


def load_products(path, format: str = "csv") -> list[DataProduct]:
    """Load listings from a CSV or JSONL file, preserving row order."""
    products = []
    if format == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise CorpusError("empty file: no header row")
            missing = [f for f in _REQUIRED_FIELDS if f not in reader.fieldnames]
            if missing:
                raise CorpusError("missing required column(s): %s" % ", ".join(missing))
            for i, rec in enumerate(reader):
                products.append(_product_from_record(rec, i))
    elif format == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError("row %d: invalid JSON (%s)" % (i, exc))
                products.append(_product_from_record(rec, i))
    else:
        raise CorpusError("unknown format %r" % format)
    return products


def _record(p: DataProduct) -> dict:
    """The fields of p by name, as dataclasses.asdict gives them, without
    its deep copy of every value: only industry_scores is copied."""
    rec = {f: getattr(p, f) for f in _FIELDS}
    if p.industry_scores is not None:
        rec["industry_scores"] = list(p.industry_scores)
    return rec


def save_products(products: list[DataProduct], path, format: str = "jsonl") -> None:
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for p in products:
                fh.write(json.dumps(_record(p), sort_keys=True) + "\n")
    elif format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            header = list(_REQUIRED_FIELDS) + INDUSTRY_COLUMNS
            w = csv.writer(fh)
            w.writerow(header)
            for p in products:
                row = [getattr(p, f) for f in _REQUIRED_FIELDS]
                row += list(p.industry_scores) if p.industry_scores else [""] * 12
                w.writerow(row)
    else:
        raise CorpusError("unknown format %r" % format)


def compose_text(p: DataProduct) -> str:
    """Single document string for a listing: name, detail and description."""
    return "%s %s %s" % (p.name, p.detail, p.description)


def encode_structured(p: DataProduct) -> np.ndarray:
    """Fixed-order numeric vector of the 9 structured attributes followed by
    the 12 industry similarity scores. Values copied without scaling."""
    if p.industry_scores is None:
        raise CorpusError(
            "product %s has no industry_scores; run the annotate step first" % p.id)
    vals = [float(getattr(p, c)) for c in STRUCTURED_COLUMNS]
    vals += [float(s) for s in p.industry_scores]
    return np.array(vals, dtype=np.float64)


def structured_matrix(products: list[DataProduct]) -> FeatureMatrix:
    values = np.array([encode_structured(p) for p in products])
    cols = STRUCTURED_COLUMNS + INDUSTRY_COLUMNS
    return FeatureMatrix(values, cols, ["structured"] * len(cols))


def quantile_cutpoints(prices) -> list[float]:
    """Default five-tier boundaries: 20/40/60/80th empirical quantiles."""
    prices = np.asarray(prices, dtype=np.float64)
    return [float(np.quantile(prices, q)) for q in (0.2, 0.4, 0.6, 0.8)]


def make_targets(products: list[DataProduct], spec: TargetSpec) -> np.ndarray:
    prices = np.array([p.price for p in products], dtype=np.float64)
    if spec.kind == "regression":
        if spec.log_transform:
            if np.any(prices <= 0):
                raise CorpusError("log transform requires positive prices")
            return np.log(prices)
        return prices
    cutpoints = spec.tier_cutpoints
    if cutpoints is None:
        cutpoints = quantile_cutpoints(prices)
    cp = np.asarray(cutpoints, dtype=np.float64)
    # class = number of cutpoints strictly below the price, so a price equal
    # to a boundary falls into the lower class
    return np.sum(prices[:, None] > cp[None, :], axis=1).astype(np.int64)


def _column_stats(x: np.ndarray):
    n = len(x)
    mean = float(np.mean(x))
    m2 = float(np.mean((x - mean) ** 2))
    std = float(np.sqrt(np.sum((x - mean) ** 2) / (n - 1)))
    if m2 == 0.0:
        return mean, std, float(np.max(x)), float(np.min(x)), float("nan"), float("nan")
    m3 = float(np.mean((x - mean) ** 3))
    m4 = float(np.mean((x - mean) ** 4))
    skew = m3 / m2 ** 1.5
    kurt = m4 / m2 ** 2 - 3.0
    return mean, std, float(np.max(x)), float(np.min(x)), skew, kurt


def describe(products: list[DataProduct]) -> DescriptiveStats:
    """Summary stats over structured columns plus price. Sample (n-1) std;
    skewness is the standardized third moment; kurtosis is excess."""
    if len(products) < 2:
        raise CorpusError("describe needs at least 2 products")
    names = STRUCTURED_COLUMNS + ["price"]
    stats = DescriptiveStats(names, [], [], [], [], [], [])
    for name in names:
        x = np.array([float(getattr(p, name)) for p in products])
        mean, std, mx, mn, skew, kurt = _column_stats(x)
        stats.mean.append(mean)
        stats.std.append(std)
        stats.max.append(mx)
        stats.min.append(mn)
        stats.skewness.append(skew)
        stats.kurtosis.append(kurt)
    return stats
