import csv
import json
import math

import numpy as np
import pytest

from dataprice.corpus import (CorpusError, DataProduct, TargetSpec,
                              REFERENCE_TIER_CUTPOINTS, compose_text, describe,
                              encode_structured, load_products, make_targets,
                              quantile_cutpoints, save_products,
                              structured_matrix)
from dataprice.matrix import FeatureMatrix


def make_product(i=0, price=100.0, scores=None, **over):
    kw = dict(id="p%d" % i, name="name %d" % i, detail="detail", description="desc",
              listed_provider=1, volume=3, historical_version=1, future_version=0,
              sensitive=0, data_sample=1, support_email=0, support_url=1,
              refund_policy=2, price=price, industry_scores=scores)
    kw.update(over)
    return DataProduct(**kw)


class TestInvariants:
    def test_valid_product(self):
        p = make_product(scores=[1.0] + [0.0] * 11)
        assert p.price == 100.0

    @pytest.mark.parametrize("field,value", [
        ("price", 0.0), ("price", -5.0), ("price", math.inf),
        ("refund_policy", 5), ("refund_policy", -1), ("volume", 0),
        ("historical_version", 3),
        ("sensitive", 3), ("listed_provider", 2), ("future_version", -1),
        ("data_sample", 2), ("support_email", 7), ("support_url", -2),
    ])
    def test_bad_scalar(self, field, value):
        with pytest.raises(CorpusError):
            make_product(**{field: value})

    def test_industry_scores_wrong_length(self):
        with pytest.raises(CorpusError):
            make_product(scores=[1.0] * 11)

    def test_industry_scores_out_of_range(self):
        with pytest.raises(CorpusError):
            make_product(scores=[1.0] + [1.5] + [0.0] * 10)

    def test_industry_scores_max_not_one(self):
        with pytest.raises(CorpusError):
            make_product(scores=[0.9] + [0.1] * 11)

    @pytest.mark.parametrize("position", [0, 5, 11])
    def test_nan_industry_score_rejected(self, position):
        # NaN fails every comparison, so the range and max checks pass it
        scores = [1.0] + [0.5] * 11
        scores[position] = math.nan
        if position == 0:
            scores[1] = 1.0
        with pytest.raises(CorpusError, match="finite"):
            make_product(scores=scores)


class TestLoading:
    def test_jsonl_roundtrip(self, tmp_path):
        prods = [make_product(i, price=10.0 * (i + 1),
                              scores=[1.0] + [0.1] * 11) for i in range(4)]
        path = tmp_path / "p.jsonl"
        save_products(prods, path, format="jsonl")
        back = load_products(path, format="jsonl")
        assert back == prods

    def test_csv_roundtrip(self, tmp_path):
        prods = [make_product(i, scores=[1.0] + [0.25] * 11) for i in range(3)]
        path = tmp_path / "p.csv"
        save_products(prods, path, format="csv")
        back = load_products(path, format="csv")
        assert [p.id for p in back] == [p.id for p in prods]
        assert back[0].industry_scores == pytest.approx(prods[0].industry_scores)

    def write_csv_with_score_cells(self, path, cells):
        # the form annotate_file accepts: one industry_scores column holding
        # a JSON list, in place of industry_0..industry_11
        prods = [make_product(i) for i in range(len(cells))]
        save_products(prods, path, format="csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="") as fh:
            fields = [f for f in rows[0] if not f.startswith("industry_")]
            w = csv.DictWriter(fh, fieldnames=fields + ["industry_scores"])
            w.writeheader()
            for row, cell in zip(rows, cells):
                w.writerow({**{f: row[f] for f in fields},
                            "industry_scores": cell})

    def test_csv_industry_scores_as_json_list(self, tmp_path):
        path = tmp_path / "p.csv"
        scores = [1.0] + [0.25] * 11
        self.write_csv_with_score_cells(path, [json.dumps(scores), ""])
        back = load_products(path, format="csv")
        assert back[0].industry_scores == scores
        assert back[1].industry_scores is None  # an empty cell: not annotated

    @pytest.mark.parametrize("cell", ["[1.0, 0.5]", "[1.0, 0.5", "1.0",
                                      json.dumps(["x"] * 12),
                                      json.dumps([1.0] + [None] * 11)])
    def test_csv_industry_scores_not_twelve_numbers(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        self.write_csv_with_score_cells(path, [json.dumps([1.0] * 12), cell])
        with pytest.raises(CorpusError, match="row 1: industry_scores"):
            load_products(path, format="csv")

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,name\nx,y\n")
        with pytest.raises(CorpusError, match="price"):
            load_products(path, format="csv")

    def test_bad_row_is_indexed(self, tmp_path):
        prods = [make_product(0), make_product(1)]
        path = tmp_path / "p.jsonl"
        save_products(prods, path, format="jsonl")
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["price"] = -1
        path.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match="row 1"):
            load_products(path, format="jsonl")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(CorpusError, match="format"):
            load_products(tmp_path / "x", format="parquet")

    def test_jsonl_infinite_price_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        save_products([make_product(0)], path, format="jsonl")
        # json.loads reads the bare token Infinity as float("inf")
        line = path.read_text().replace('"price": 100.0', '"price": Infinity')
        assert "Infinity" in line
        path.write_text(line)
        with pytest.raises(CorpusError, match="row 0.*finite"):
            load_products(path, format="jsonl")


class TestEncoding:
    def test_compose_text(self):
        p = make_product(name="A", detail="B", description="C")
        assert compose_text(p) == "A B C"

    def test_encode_structured_order(self):
        scores = [0.5] * 12
        scores[3] = 1.0
        p = make_product(scores=scores)
        v = encode_structured(p)
        assert v.shape == (21,)
        assert v[:9].tolist() == [1, 3, 1, 0, 0, 1, 0, 1, 2]
        assert v[9 + 3] == 1.0

    def test_missing_scores_mentions_annotate(self):
        with pytest.raises(CorpusError, match="annotate"):
            encode_structured(make_product())

    def test_structured_matrix_columns(self):
        m = structured_matrix([make_product(scores=[1.0] + [0.0] * 11)])
        assert m.n_cols == 21
        assert m.columns[0] == "listed_provider"
        assert m.columns[-1] == "industry_11"
        assert set(m.provenance) == {"structured"}


class TestFeatureMatrix:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        values = np.ones((3, 2))
        values[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix(values, ["a", "b"])

    def test_non_finite_rejected_from_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\nx,x\n1,1\n1,nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix.from_csv(path)


class TestTargets:
    def test_log_regression(self):
        prods = [make_product(i, price=float(v)) for i, v in enumerate([1, 10, 100])]
        y = make_targets(prods, TargetSpec("regression"))
        assert y == pytest.approx([0.0, math.log(10), math.log(100)])

    def test_tier_boundary_goes_down(self):
        # class = number of cutpoints strictly below the price
        cp = REFERENCE_TIER_CUTPOINTS
        prices = [100.0, cp[0], cp[0] + 0.01, cp[3], cp[3] + 1.0]
        prods = [make_product(i, price=p) for i, p in enumerate(prices)]
        y = make_targets(prods, TargetSpec("classification", tier_cutpoints=cp))
        assert y.tolist() == [0, 0, 1, 3, 4]

    def test_default_cutpoints_are_quintiles(self):
        prices = [float(i) for i in range(1, 101)]
        cp = quantile_cutpoints(prices)
        assert cp == pytest.approx([np.quantile(prices, q)
                                    for q in (0.2, 0.4, 0.6, 0.8)])
        prods = [make_product(i, price=p) for i, p in enumerate(prices)]
        y = make_targets(prods, TargetSpec("classification"))
        counts = np.bincount(y, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_bad_cutpoints(self):
        with pytest.raises(CorpusError):
            TargetSpec("classification", tier_cutpoints=[1.0, 1.0, 2.0, 3.0])


class TestDescribe:
    def test_moment_oracle(self):
        # price column [1, 2, 3, 10]: moments computed by hand
        prods = [make_product(i, price=float(v)) for i, v in enumerate([1, 2, 3, 10])]
        stats = describe(prods)
        i = stats.features.index("price")
        x = np.array([1.0, 2.0, 3.0, 10.0])
        mean = x.mean()
        m2 = ((x - mean) ** 2).mean()
        m3 = ((x - mean) ** 3).mean()
        m4 = ((x - mean) ** 4).mean()
        assert stats.mean[i] == pytest.approx(4.0)
        assert stats.std[i] == pytest.approx(math.sqrt(((x - mean) ** 2).sum() / 3))
        assert stats.max[i] == 10.0 and stats.min[i] == 1.0
        assert stats.skewness[i] == pytest.approx(m3 / m2 ** 1.5, abs=1e-12)
        assert stats.kurtosis[i] == pytest.approx(m4 / m2 ** 2 - 3.0, abs=1e-12)

    def test_binary_rare_flag_skewness(self):
        # a 0/1 column with fraction q of ones has skewness (1-2q)/sqrt(q(1-q))
        n, ones = 100, 8
        prods = [make_product(i, support_email=1 if i < ones else 0)
                 for i in range(n)]
        stats = describe(prods)
        i = stats.features.index("support_email")
        q = ones / n
        expect = (1 - 2 * q) / math.sqrt(q * (1 - q))
        assert stats.skewness[i] == pytest.approx(expect, abs=1e-12)

    def test_constant_column_undefined(self, tmp_path):
        prods = [make_product(i) for i in range(3)]
        stats = describe(prods)
        i = stats.features.index("sensitive")  # constant 0
        assert math.isnan(stats.skewness[i]) and math.isnan(stats.kurtosis[i])
        out = tmp_path / "stats.csv"
        stats.to_csv(out)
        with open(out) as fh:
            rows = {r[0]: r for r in csv.reader(fh)}
        assert rows["sensitive"][5] == "undefined"
        assert rows["sensitive"][6] == "undefined"
