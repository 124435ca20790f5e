import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from importlib import resources

import numpy as np
import pytest

import dataprice
from dataprice.annotate import (AnnotationError, AnnotationRequest,
                                TransportError, annotate, annotate_file,
                                build_prompt, call_llm, fallback_industry_vector,
                                fallback_refund_level, parse_industry,
                                parse_refund)
from dataprice.corpus import INDUSTRIES, CorpusError

COVID_TEXT = ("Coronavirus (COVID-19) data that has been gathered and unified "
              "from trusted sources. This data is provided to the public by "
              "Salesforce, MuleSoft, and Tableau at no cost to help you make "
              "better decisions, fast.")


def fixture_text(name):
    return (resources.files("dataprice.prompts") / name).read_text(encoding="utf-8")


# --------------------------------------------------------------- prompts ----

class TestBuildPrompt:
    def test_refund_starts_with_fixture_bytes(self):
        prompt = build_prompt("refund", ["some policy"])
        assert prompt.startswith(fixture_text("refund_v1.txt"))
        assert "Return the result as a JSON array of integers" in prompt

    def test_industry_starts_with_fixture_bytes(self):
        prompt = build_prompt("industry", ["some product"])
        fixture = fixture_text("industry_v1.txt")
        assert prompt.startswith(fixture)
        # all 12 scenarios listed, in canonical order
        scenario_leads = ["E-commerce and Business Data:",
                          "Retail and Location Data:", "Financial Services:",
                          "Healthcare and Life Sciences Data:",
                          "Resources Data:", "Public Sector Data:",
                          "Media and Entertainment Data:",
                          "Telecommunications Data:",
                          "Cars and Automotive Data:", "Manufacturing Data:",
                          "Environmental Data:", "Gaming Data:"]
        last = -1
        for lead in scenario_leads:
            pos = fixture.find(lead)
            assert pos > last
            last = pos

    def test_texts_numbered_in_order(self):
        prompt = build_prompt("refund", ["first policy", "second policy"])
        body = prompt.split("Input texts:\n", 1)[1]
        assert body == "1. first policy\n2. second policy\n"

    def test_empty_text_placeholder_preserves_positions(self):
        prompt = build_prompt("refund", ["a", "", "c"])
        assert "2. (empty)\n3. c" in prompt

    def test_whitespace_collapsed(self):
        prompt = build_prompt("refund", ["line\none\t two"])
        assert "1. line one two" in prompt

    def test_unknown_kind(self):
        with pytest.raises(AnnotationError, match="kind"):
            build_prompt("sentiment", ["x"])


# --------------------------------------------------------------- parsers ----

class TestParseRefund:
    def test_reference_output(self):
        assert parse_refund("[2,0,4,1,3]", 5) == [2, 0, 4, 1, 3]

    def test_leading_prose_tolerated(self):
        assert parse_refund("sure! [1,2]", 2) == [1, 2]

    def test_out_of_range_names_index(self):
        with pytest.raises(AnnotationError, match="index 0"):
            parse_refund("[7]", 1)

    def test_wrong_length(self):
        with pytest.raises(AnnotationError, match="expected 3"):
            parse_refund("[1,2]", 3)

    def test_no_array(self):
        with pytest.raises(AnnotationError, match="array"):
            parse_refund("no idea", 1)


class TestParseIndustry:
    REFERENCE_LINE = "[0.1, 0.05, 0.05, 1, 0.1, 0.8, 0.05, 0.05, 0.05, 0.05, 0.6, 0.05]"

    def test_reference_output(self):
        (vec,) = parse_industry(self.REFERENCE_LINE, 1)
        assert len(vec) == 12
        assert vec[3] == 1.0
        assert INDUSTRIES[int(np.argmax(vec))] == "Healthcare and Life Sciences"

    def test_multiple_rows_one_line_each(self):
        text = self.REFERENCE_LINE + "\n\n" + self.REFERENCE_LINE
        assert len(parse_industry(text, 2)) == 2

    def test_wrong_arity(self):
        with pytest.raises(AnnotationError, match="12 numbers"):
            parse_industry("[0.1, 0.2, 1]", 1)

    def test_max_must_be_one(self):
        with pytest.raises(AnnotationError, match="max"):
            parse_industry("[" + ", ".join(["0.5"] * 12) + "]", 1)

    def test_values_outside_unit_interval(self):
        bad = "[1, -0.1" + ", 0" * 10 + "]"
        with pytest.raises(AnnotationError, match="outside"):
            parse_industry(bad, 1)

    def test_near_one_max_renormalized(self):
        line = "[0.2, " + "0.1, " * 10 + "0.9999999]"
        (vec,) = parse_industry(line, 1)
        assert vec[11] == 1.0

    def test_line_count_mismatch(self):
        with pytest.raises(AnnotationError, match="lines"):
            parse_industry(self.REFERENCE_LINE, 2)


# -------------------------------------------------------------- fallback ----

REFUND_EXEMPLARS = [
    ("No refunds.", 0),
    ("Refunds are not offered on this product.", 0),
    ("This product is non-refundable.", 0),
    ("Refunds not applicable.", 0),
    ("This product does not have a defined refund policy.", 1),
    ("Refund policy will be discussed...", 1),
    ("Refunds are not specified for this product.", 1),
    ("No refunds. Please utilize trial version before purchase.", 2),
    ("Please request a free sample before buying.", 2),
    ("Not Applicable.", 2),
    ("This is a free sample.", 2),
    ("All sales are final due to digital nature.", 2),
    ("No refunds but contact us at ...", 3),
    ("Refunds are not offered, but we will fix issues.", 3),
    ("Please contact support@... for assistance.", 3),
    ("Full refund available upon request.", 4),
    ("Refund only if subscription is canceled within 90 days.", 4),
    ("Refunds issued for valid reasons only.", 4),
]


class TestFallbackRefund:
    @pytest.mark.parametrize("text,level", REFUND_EXEMPLARS)
    def test_exemplars(self, text, level):
        assert fallback_refund_level(text) == level

    def test_no_rule_hit_defaults_to_undefined(self):
        assert fallback_refund_level("Lorem ipsum dolor sit amet.") == 1

    def test_deterministic(self):
        for text, _ in REFUND_EXEMPLARS:
            assert fallback_refund_level(text) == fallback_refund_level(text)


class TestFallbackIndustry:
    def test_covid_text_is_healthcare(self):
        vec = fallback_industry_vector(COVID_TEXT)
        assert vec[3] == 1.0
        assert max(vec) == 1.0
        assert INDUSTRIES[int(np.argmax(vec))] == "Healthcare and Life Sciences"

    def test_gaming_text(self):
        vec = fallback_industry_vector("Player statistics and esports game "
                                       "performance telemetry.")
        assert INDUSTRIES[int(np.argmax(vec))] == "Gaming"

    def test_no_match_gives_uninformative_vector(self):
        assert fallback_industry_vector("zzz qqq xxx") == [1.0] * 12


# ------------------------------------------------------------- transport ----

class _MockLLM:
    """Local chat-completions server with scriptable failures."""

    def __init__(self, content, fail_first=0):
        self.content = content
        self.fail_first = fail_first
        self.requests = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                outer.requests += 1
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                if outer.requests <= outer.fail_first:
                    self.send_response(500)
                    self.end_headers()
                    self.wfile.write(b"boom")
                    return
                body = json.dumps({"choices": [{"message": {
                    "content": outer.content}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = "http://127.0.0.1:%d/v1" % self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def mock_llm():
    servers = []

    def make(content, fail_first=0):
        s = _MockLLM(content, fail_first)
        servers.append(s)
        return s

    yield make
    for s in servers:
        s.close()


class TestTransport:
    def test_endpoint_roundtrip(self, mock_llm):
        server = mock_llm("[2,0,4,1,3]")
        req = AnnotationRequest("refund", ["a", "b", "c", "d", "e"],
                                endpoint=server.url)
        assert annotate(req) == [2, 0, 4, 1, 3]
        assert server.requests == 1

    def test_cache_hit_skips_http(self, mock_llm, tmp_path):
        server = mock_llm("[1]")
        req = AnnotationRequest("refund", ["x"], endpoint=server.url,
                                cache_dir=str(tmp_path))
        assert annotate(req) == [1]
        assert annotate(req) == [1]
        assert server.requests == 1
        assert len(list(tmp_path.glob("*.txt"))) == 1

    def test_malformed_completion_not_cached(self, mock_llm, tmp_path):
        server = mock_llm("no levels here")
        req = AnnotationRequest("refund", ["x"], endpoint=server.url,
                                cache_dir=str(tmp_path))
        with pytest.raises(AnnotationError, match="no integer array"):
            annotate(req)
        assert list(tmp_path.iterdir()) == []
        server.content = "[3]"
        assert annotate(req) == [3]
        assert server.requests == 2

    def test_rejected_cache_entry_asked_again(self, mock_llm, tmp_path):
        server = mock_llm("[4]")
        req = AnnotationRequest("refund", ["x"], endpoint=server.url,
                                cache_dir=str(tmp_path))
        assert annotate(req) == [4]
        (entry,) = tmp_path.glob("*.txt")
        entry.write_text("[9]", encoding="utf-8")  # out of range: rejected
        assert annotate(req) == [4]
        assert server.requests == 2
        assert entry.read_text(encoding="utf-8") == "[4]"

    def test_second_writer_between_write_and_rename(self, mock_llm, tmp_path,
                                                    monkeypatch):
        # the first call's rename runs a second call for the same key
        # before it renames its own file
        server = mock_llm("[1, 2]")
        req = AnnotationRequest("refund", ["a", "b"], endpoint=server.url,
                                cache_dir=str(tmp_path))
        real_replace, nested = os.replace, []

        def replace(src, dst):
            if not nested:
                nested.append(None)
                nested[0] = call_llm(req, "prompt")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert call_llm(req, "prompt") == "[1, 2]"
        assert nested == ["[1, 2]"]
        assert server.requests == 2
        (entry,) = tmp_path.iterdir()
        assert entry.suffix == ".txt"
        assert entry.read_text(encoding="utf-8") == "[1, 2]"

    def test_retry_then_success(self, mock_llm):
        server = mock_llm("[3]", fail_first=1)
        req = AnnotationRequest("refund", ["x"], endpoint=server.url,
                                retries=2)
        assert annotate(req) == [3]
        assert server.requests == 2

    def test_gives_up_after_budget(self, mock_llm):
        server = mock_llm("[0]", fail_first=99)
        req = AnnotationRequest("refund", ["x"], endpoint=server.url,
                                retries=1)
        with pytest.raises(TransportError, match="gave up after 2 attempts"):
            annotate(req)
        assert server.requests == 2

    def test_api_key_header_sent(self, mock_llm):
        server = mock_llm("[2]")
        req = AnnotationRequest("refund", ["x"], endpoint=server.url,
                                api_key="secret")
        assert annotate(req) == [2]

    def test_no_endpoint_uses_fallback(self):
        req = AnnotationRequest("refund", ["No refunds.",
                                           "Full refund available upon request."])
        assert annotate(req) == [0, 4]

    def test_call_llm_requires_endpoint(self):
        req = AnnotationRequest("refund", ["x"])
        with pytest.raises(TransportError, match="endpoint"):
            call_llm(req, "prompt")

    def test_batching_preserves_order(self, mock_llm):
        server = mock_llm("[1,2]")
        req = AnnotationRequest("refund", ["a", "b", "c", "d"],
                                endpoint=server.url)
        assert annotate(req, batch_size=2) == [1, 2, 1, 2]
        assert server.requests == 2


class TestRequestValidation:
    def test_bad_kind(self):
        with pytest.raises(AnnotationError):
            AnnotationRequest("mood", ["x"])

    def test_empty_batch(self):
        with pytest.raises(AnnotationError):
            AnnotationRequest("refund", [])

    def test_bad_timeout(self):
        with pytest.raises(AnnotationError):
            AnnotationRequest("refund", ["x"], timeout=0)


# ----------------------------------------------------------- file driver ----

class TestAnnotateFile:
    def rows(self):
        return [
            {"id": "p1", "name": "Covid tracker", "detail": "",
             "description": COVID_TEXT, "refund_policy": "No refunds.",
             "price": "10"},
            {"id": "p2", "name": "Game stats", "detail": "esports player data",
             "description": "game performance data",
             "refund_policy": "2", "price": "20"},
        ]

    def test_jsonl_roundtrip_with_fallback(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        with open(src, "w") as fh:
            for r in self.rows():
                fh.write(json.dumps(r) + "\n")
        out = tmp_path / "annotated.jsonl"
        counts = annotate_file(src, out, format="jsonl")
        assert counts == {"refund_annotated": 1, "industry_annotated": 2,
                          "rows": 2}
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert recs[0]["refund_policy"] == 0
        assert recs[1]["refund_policy"] == "2"  # already numeric: untouched
        assert recs[0]["industry_scores"][3] == 1.0
        scores = recs[1]["industry_scores"]
        assert INDUSTRIES[int(np.argmax(scores))] == "Gaming"

    def test_csv_input(self, tmp_path):
        import csv as _csv
        src = tmp_path / "raw.csv"
        rows = self.rows()
        with open(src, "w", newline="") as fh:
            w = _csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        out = tmp_path / "annotated.jsonl"
        counts = annotate_file(src, out, format="csv")
        assert counts["rows"] == 2
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(len(r["industry_scores"]) == 12 for r in recs)

    def test_csv_industry_scores_cell(self, tmp_path):
        import csv as _csv
        src = tmp_path / "raw.csv"
        rows = self.rows()
        rows[0]["industry_scores"] = json.dumps([1.0] + [0.5] * 11)
        rows[1]["industry_scores"] = ""
        with open(src, "w", newline="") as fh:
            w = _csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        out = tmp_path / "annotated.jsonl"
        counts = annotate_file(src, out, format="csv")
        assert counts["industry_annotated"] == 1
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert recs[0]["industry_scores"] == [1.0] + [0.5] * 11
        assert len(recs[1]["industry_scores"]) == 12

        rows[0]["industry_scores"] = "[1.0, 0.5]"
        with open(src, "w", newline="") as fh:
            w = _csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        with pytest.raises(CorpusError, match="row 0: industry_scores"):
            annotate_file(src, out, format="csv")

    def test_empty_input_rejected(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        with pytest.raises(AnnotationError, match="no rows"):
            annotate_file(src, tmp_path / "out.jsonl", format="jsonl")

    def test_unknown_format(self, tmp_path):
        src = tmp_path / "x.parquet"
        src.write_text("data")
        with pytest.raises(AnnotationError, match="format"):
            annotate_file(src, tmp_path / "out.jsonl", format="parquet")


class TestImportSurface:
    def test_offline_run_loads_no_http_stack(self, tmp_path):
        # a fresh interpreter: pytest's own plugins may import requests
        src = tmp_path / "raw.jsonl"
        src.write_text(json.dumps(TestAnnotateFile().rows()[0]) + "\n",
                       encoding="utf-8")
        code = ("import sys\n"
                "import dataprice, dataprice.cli\n"
                "from dataprice.annotate import annotate_file\n"
                "annotate_file(sys.argv[1], sys.argv[2], format='jsonl')\n"
                "print(sorted(m for m in ('requests', 'urllib3')"
                " if m in sys.modules))\n")
        root = os.path.dirname(os.path.dirname(dataprice.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(src), str(tmp_path / "out.jsonl")],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"
        assert (tmp_path / "out.jsonl").exists()
