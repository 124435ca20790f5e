"""Listing annotation: refund-policy levels (0-4) and 12-industry
similarity vectors.

Primary path: an OpenAI-compatible chat-completions endpoint, temperature
0, with disk caching and exponential-backoff retries. Offline path: a
deterministic rule-based annotator (keyword rules for refund levels,
seed-keyword cosine similarity for industries).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .corpus import INDUSTRY_COLUMNS, industry_scores_of
from .textrep.tokenizer import tokenize

PROMPT_VERSION = "v1"
MAX_TOLERANCE = 1e-6  # industry vectors with max within this of 1 renormalize


class AnnotationError(ValueError):
    pass


class TransportError(AnnotationError):
    pass


@dataclass
class AnnotationRequest:
    kind: str  # "refund" | "industry"
    texts: list[str]
    endpoint: str | None = None
    model: str = "default"
    timeout: float = 30.0
    retries: int = 3
    api_key: str | None = None
    cache_dir: str | None = None

    def __post_init__(self):
        if self.kind not in ("refund", "industry"):
            raise AnnotationError("unknown annotation kind %r" % self.kind)
        if not self.texts:
            raise AnnotationError("batch must be nonempty")
        if not self.timeout > 0:
            raise AnnotationError("timeout must be positive")


# --------------------------------------------------------------- prompts ----

def _template(kind: str) -> str:
    name = "%s_%s.txt" % (kind, PROMPT_VERSION)
    return (resources.files("dataprice.prompts") / name).read_text(encoding="utf-8")


def build_prompt(kind: str, texts: list[str]) -> str:
    """Versioned instruction template with the batch texts appended in
    order; empty entries become the "(empty)" placeholder so positions are
    preserved."""
    if kind not in ("refund", "industry"):
        raise AnnotationError("unknown annotation kind %r" % kind)
    lines = [_template(kind), "", "Input texts:"]
    for i, t in enumerate(texts, 1):
        t = " ".join(str(t).split())
        lines.append("%d. %s" % (i, t if t else "(empty)"))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- transport ----

def _cache_path(cache_dir: str, prompt: str, model: str) -> Path:
    digest = hashlib.sha256((model + "\n" + prompt).encode("utf-8")).hexdigest()
    return Path(cache_dir) / (digest + ".txt")


def call_llm(request: AnnotationRequest, prompt: str) -> str:
    """One chat completion at temperature 0, with exponential-backoff
    retries and an on-disk response cache keyed by (prompt, model)."""
    return _completion(request, prompt, lambda content: content)


def _completion(request: AnnotationRequest, prompt: str, parse):
    """parse(completion), through call_llm's cache and retries. Only a
    completion that parse accepts is cached, and a cached one it rejects
    is asked for again."""
    if request.endpoint is None:
        raise TransportError("no endpoint configured")
    cache_file = None
    if request.cache_dir:
        cache_file = _cache_path(request.cache_dir, prompt, request.model)
        if cache_file.exists():
            try:
                return parse(cache_file.read_text(encoding="utf-8"))
            except AnnotationError:
                pass
    import requests  # only a call that posts pays for the HTTP stack

    url = request.endpoint.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if request.api_key:
        headers["Authorization"] = "Bearer " + request.api_key
    payload = {
        "model": request.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0,
    }
    last_error = None
    for attempt in range(request.retries + 1):
        if attempt:
            time.sleep(min(0.25 * 2 ** (attempt - 1), 4.0))
        try:
            resp = requests.post(url, json=payload, headers=headers,
                                 timeout=request.timeout)
        except requests.RequestException as exc:
            last_error = "network failure: %s" % exc
            continue
        if resp.status_code != 200:
            last_error = "status %d: %s" % (resp.status_code, resp.text[:200])
            continue
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError) as exc:
            raise TransportError("malformed completion payload: %s" % exc)
        value = parse(content)
        if cache_file:
            _write_atomic(cache_file, content)
        return value
    raise TransportError("gave up after %d attempts (%s)"
                         % (request.retries + 1, last_error))


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a temporary file of this writer's own in path's
    directory, then rename it over path, so concurrent writers of one key
    never share a temporary file and a reader sees a whole entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# --------------------------------------------------------------- parsers ----

_INT_ARRAY = re.compile(r"\[\s*-?\d+(?:\s*,\s*-?\d+)*\s*\]")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def parse_refund(response: str, n_texts: int) -> list[int]:
    """First well-formed integer array in the response; leading prose is
    tolerated. Validates length and the 0-4 range."""
    m = _INT_ARRAY.search(response)
    if not m:
        raise AnnotationError("no integer array found in response")
    values = [int(v) for v in _NUMBER.findall(m.group(0))]
    if len(values) != n_texts:
        raise AnnotationError("expected %d levels, got %d" % (n_texts, len(values)))
    for i, v in enumerate(values):
        if not 0 <= v <= 4:
            raise AnnotationError("level %d at index %d outside [0,4]" % (v, i))
    return values


def parse_industry(response: str, n_rows: int) -> list[list[float]]:
    """One 12-number JSON-style list per nonempty line. Each vector must
    lie in [0,1] with its maximum within 1e-6 of 1; the max is then
    renormalized to exactly 1.0."""
    lines = [ln for ln in response.splitlines() if ln.strip()]
    if len(lines) != n_rows:
        raise AnnotationError("expected %d lines, got %d" % (n_rows, len(lines)))
    vectors = []
    for i, line in enumerate(lines):
        nums = [float(v) for v in _NUMBER.findall(line)]
        if len(nums) != 12:
            raise AnnotationError("line %d: expected 12 numbers, got %d"
                                  % (i, len(nums)))
        top = max(nums)
        if any(v < 0 or v > 1 + MAX_TOLERANCE for v in nums):
            raise AnnotationError("line %d: value outside [0,1]" % i)
        if abs(top - 1.0) > MAX_TOLERANCE:
            raise AnnotationError("line %d: max %.8f is not 1 within tolerance"
                                  % (i, top))
        vectors.append([v / top for v in nums])
    return vectors


# -------------------------------------------------------------- fallback ----

def _normalize(text: str) -> str:
    return " ".join(text.lower().split()).rstrip(".")


# keyword rules per refund level; checked in priority order 4 > 3 > 2 > 0,
# with level 1 (undefined) as the default bucket
_LEVEL4 = ["full refund", "refund available", "refund only if",
           "refunds issued", "refund upon request", "money back",
           "eligible for refund", "refund if", "refund will be issued",
           "conditional refund"]
_LEVEL3 = ["contact", "support@", "we will fix", "reach out", "assistance",
           "customer support", "support team"]
_LEVEL2 = ["trial", "sample", "all sales are final", "demo", "free version",
           "disclaimer"]
_LEVEL2_EXACT = ["not applicable", "n/a"]
_LEVEL0 = ["no refunds", "no refund", "non-refundable", "nonrefundable",
           "not refundable", "not offered", "not applicable",
           "cannot be refunded", "will not be refunded"]
_LEVEL1 = ["not specified", "not defined", "no defined",
           "does not have a defined", "will be discussed", "undefined"]


def fallback_refund_level(text: str) -> int:
    t = _normalize(text)
    if any(k in t for k in _LEVEL4):
        return 4
    if any(k in t for k in _LEVEL3):
        return 3
    if t in _LEVEL2_EXACT or any(k in t for k in _LEVEL2):
        return 2
    if any(k in t for k in _LEVEL0):
        return 0
    return 1


# seed keywords per industry, in the canonical 12-scenario order
_INDUSTRY_SEEDS = [
    ["ecommerce", "commerce", "business", "sales", "inventory", "consumer",
     "behavior", "online", "shopping", "product", "purchase", "b2b"],
    ["retail", "location", "gps", "advertising", "foot", "traffic",
     "marketing", "store", "geographic", "geospatial", "poi", "places"],
    ["financial", "finance", "banking", "bank", "insurance", "investment",
     "stock", "market", "trading", "credit", "loan", "equity", "crypto"],
    ["healthcare", "health", "medicine", "medical", "biology", "disease",
     "clinical", "trial", "genomic", "patient", "drug", "pharma", "covid",
     "coronavirus", "pandemic", "hospital", "life", "sciences"],
    ["resources", "energy", "mining", "agricultural", "agriculture", "oil",
     "gas", "natural", "crop", "farm", "power", "solar", "wind"],
    ["public", "government", "census", "records", "regulatory", "sector",
     "policy", "municipal", "federal", "civic"],
    ["media", "entertainment", "streaming", "content", "rating", "social",
     "news", "music", "video", "audience", "tv"],
    ["telecommunications", "telecom", "call", "network", "mobile", "phone",
     "cellular", "broadband", "carrier", "sms"],
    ["cars", "automotive", "vehicles", "vehicle", "transportation",
     "sensor", "traffic", "car", "driving", "fleet", "automobile"],
    ["manufacturing", "industrial", "production", "supply", "chain",
     "factory", "machinery", "assembly", "logistics"],
    ["environmental", "environment", "climate", "sustainability",
     "pollution", "weather", "emissions", "carbon", "air", "water"],
    ["gaming", "game", "player", "games", "esports", "gamer", "playtime"],
]


def fallback_industry_vector(text: str) -> list[float]:
    """Cosine similarity between the document's term counts and each
    industry's seed-keyword set, max-normalized to 1. A document matching
    no seeds anywhere returns the all-ones (uninformative) vector."""
    counts: dict[str, int] = {}
    for tok in tokenize(text):
        counts[tok] = counts.get(tok, 0) + 1
    doc_norm = math.sqrt(sum(c * c for c in counts.values()))
    sims = []
    for seeds in _INDUSTRY_SEEDS:
        dot = sum(counts.get(s, 0) for s in seeds)
        denom = doc_norm * math.sqrt(len(seeds))
        sims.append(dot / denom if denom else 0.0)
    top = max(sims)
    if top == 0.0:
        return [1.0] * 12
    return [s / top for s in sims]


def fallback_annotate(kind: str, texts: list[str]):
    if kind == "refund":
        return [fallback_refund_level(t) for t in texts]
    if kind == "industry":
        return [fallback_industry_vector(t) for t in texts]
    raise AnnotationError("unknown annotation kind %r" % kind)


# ---------------------------------------------------------------- driver ----

def annotate(request: AnnotationRequest, batch_size: int = 16):
    """Annotate the request's texts, batched, preserving order. Without an
    endpoint the deterministic offline rules are used."""
    if request.endpoint is None:
        return fallback_annotate(request.kind, request.texts)
    parse = parse_refund if request.kind == "refund" else parse_industry
    out = []
    for start in range(0, len(request.texts), batch_size):
        batch = request.texts[start:start + batch_size]
        out.extend(_completion(request, build_prompt(request.kind, batch),
                               lambda raw: parse(raw, len(batch))))
    return out


# ----------------------------------------------------------- file driver ----

def _read_records(path, format: str) -> list[dict]:
    if format == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    if format == "jsonl":
        records = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records
    raise AnnotationError("unknown format %r" % format)


def annotate_file(in_path, out_path, format: str = "csv",
                  endpoint: str | None = None, model: str = "default",
                  timeout: float = 30.0, retries: int = 3,
                  api_key: str | None = None, cache_dir: str | None = None,
                  batch_size: int = 16) -> dict:
    """Fill annotation-derived fields of a raw listings file and write the
    result as JSONL ready for loading.

    Rows whose refund_policy is free text get a refund level; rows without
    industry scores get a similarity vector from the composed listing text.
    Returns counts of what was annotated."""
    records = _read_records(in_path, format)
    if not records:
        raise AnnotationError("no rows in %s" % in_path)

    def make_request(kind, texts):
        return AnnotationRequest(kind, texts, endpoint=endpoint, model=model,
                                 timeout=timeout, retries=retries,
                                 api_key=api_key, cache_dir=cache_dir)

    refund_rows = []
    refund_texts = []
    for i, rec in enumerate(records):
        raw = str(rec.get("refund_policy", "")).strip()
        try:
            int(raw)
        except ValueError:
            refund_rows.append(i)
            refund_texts.append(raw)
    if refund_texts:
        levels = annotate(make_request("refund", refund_texts), batch_size)
        for i, lvl in zip(refund_rows, levels):
            records[i]["refund_policy"] = int(lvl)

    industry_rows = [i for i, rec in enumerate(records)
                     if industry_scores_of(rec, i) is None]
    if industry_rows:
        texts = ["%s %s %s" % (records[i].get("name", ""),
                               records[i].get("detail", ""),
                               records[i].get("description", ""))
                 for i in industry_rows]
        vectors = annotate(make_request("industry", texts), batch_size)
        for i, vec in zip(industry_rows, vectors):
            records[i]["industry_scores"] = vec

    with open(out_path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(records):
            rec["industry_scores"] = industry_scores_of(rec, i)
            for c in INDUSTRY_COLUMNS:
                rec.pop(c, None)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return {"refund_annotated": len(refund_rows),
            "industry_annotated": len(industry_rows),
            "rows": len(records)}
