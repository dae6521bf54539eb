"""Few-shot LLM baseline: prompt assembly, output parsing, record/replay runs.

The prompt is a system message defining the valence/arousal scales and the
"V#A" output format, followed by labeled exemplars rendered as user/assistant
chat turns, then the unanswered query. Responses are parsed leniently (first
``number#number`` found anywhere) and clipped into [1, 9]; unparseable
responses fall back to the scale midpoint (5.0, 5.0) after retries and are
flagged in the run log.

Transports are pluggable: an OpenAI-style HTTP chat-completions client for
live runs, and a replay transport that serves responses from a previously
recorded transcript so tests and CI never touch the network.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .data import DataError, VAPair, format_va_string, read_jsonl, write_transcript

DEFAULT_SYSTEM_PROMPT = """\
You are an expert in sentiment analysis. Your task is to predict Valence and Arousal scores for aspects in sentences.

Definitions:
- Valence: emotional positivity/negativity (1.0 = very negative, 5.0 = neutral, 9.0 = very positive)
- Arousal: emotional intensity/excitement (1.0 = very calm/sluggish, 5.0 = moderate, 9.0 = very excited)

Output format: valence#arousal (e.g., 7.50#6.80)"""

# Default six labeled exemplars used for English runs.
DEFAULT_EXEMPLARS = (
    ("the food was absolutely amazing!!", "food", VAPair(8.50, 8.25)),
    ("but the staff was so horrible to us.", "staff", VAPair(1.33, 8.67)),
    (
        "food was just average... if they lowered the prices just a bit, it would be a bigger draw.",
        "food",
        VAPair(5.00, 5.00),
    ),
    ("i love this macbook.", "macbook", VAPair(7.10, 6.90)),
    ("horrible product.", "product", VAPair(2.60, 5.70)),
    ("it has and does everything it should.", "NULL", VAPair(5.67, 5.50)),
)

# the prediction recorded when every attempt for an instance fails: the scale midpoint
FALLBACK = VAPair(5.0, 5.0)

_VA_PATTERN = re.compile(r"(-?\d+(?:\.\d+)?)\s*#\s*(-?\d+(?:\.\d+)?)")


class LlmError(RuntimeError):
    pass


class LlmParseError(LlmError):
    pass


@dataclass
class LlmRunConfig:
    base_url: str = ""
    model: str = ""
    temperature: float = 0.1
    max_retries: int = 2
    api_key_env: str = "DIMASR_LLM_API_KEY"
    timeout: float = 60.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise LlmError(f"{f.name} must be finite, got {value}")
        for name in ("temperature", "max_retries"):
            if getattr(self, name) < 0:
                raise LlmError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.timeout <= 0:
            raise LlmError(f"timeout must be > 0, got {self.timeout}")


def render_query(text: str, aspect: str) -> str:
    return f'Text: "{text}"\nAspect: "{aspect}"'


def build_prefix(exemplars=DEFAULT_EXEMPLARS) -> list:
    """The messages every prompt of a run begins with: the system message, then
    one user/assistant turn pair per labeled exemplar."""
    messages = [{"role": "system", "content": DEFAULT_SYSTEM_PROMPT}]
    for item in exemplars:
        if isinstance(item, tuple):
            text, aspect, gold = item
        else:
            text, aspect, gold = item.text, item.aspect, item.gold
        if gold is None:
            raise LlmError(f"exemplar ({text!r}, {aspect!r}) is missing its gold label")
        messages.append({"role": "user", "content": render_query(text, aspect)})
        messages.append({"role": "assistant", "content": format_va_string(gold)})
    return messages


def build_prompt(instance, prefix: list) -> list:
    """Chat message list: the run's shared prefix (build_prefix), then the query.
    The prefix's message objects are shared, not copied."""
    return prefix + [{"role": "user", "content": render_query(instance.text, instance.aspect)}]


def sample_exemplars(train_instances, k: int = 6, seed: int = 42):
    """Seeded uniform sample (without replacement) of labeled exemplars."""
    pool = [i for i in train_instances if i.gold is not None]
    if k > len(pool):
        raise LlmError(f"cannot sample {k} exemplars from a pool of {len(pool)}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in idx]


def parse_llm_output(raw_text: str) -> VAPair:
    """Extract the first V#A pattern, clip both values into [1, 9]."""
    match = _VA_PATTERN.search(raw_text)
    if match is None:
        raise LlmParseError(f"no V#A pattern in response: {raw_text[:120]!r}")
    v = min(max(float(match.group(1)), 1.0), 9.0)
    a = min(max(float(match.group(2)), 1.0), 9.0)
    return VAPair(v, a)


def instance_key(instance) -> str:
    return f"{instance.sentence_id}::{instance.aspect_index}"


class ReplayTransport:
    """Serves raw responses from a recorded transcript file; no network.

    A malformed transcript line raises DataError naming the file and line."""

    def __init__(self, transcript_path):
        self.responses = {}
        for where, obj in read_jsonl(transcript_path):
            key, response = obj.get("key"), obj.get("response")
            if not (type(key) is type(response) is str):  # a JSON string is never a subclass
                for name in ("key", "response"):
                    if not isinstance(obj.get(name), str):
                        raise DataError(f"{where}: field {name!r} must be a string, "
                                        f"got {obj.get(name)!r}")
            self.responses.setdefault(key, []).append(response)
        self._cursor = {}

    def complete(self, key: str, messages, config) -> str:
        attempts = self.responses.get(key)
        if not attempts:
            raise LlmError(f"transcript has no response for instance {key}")
        i = self._cursor.get(key, 0)
        self._cursor[key] = i + 1
        return attempts[min(i, len(attempts) - 1)]


class HttpChatTransport:
    """OpenAI-style /chat/completions client. Credential via environment."""

    def __init__(self, config: LlmRunConfig):
        if not config.base_url:
            raise LlmError("live runs require a base_url in the LLM config")
        api_key = os.environ.get(config.api_key_env)
        if not api_key:
            raise LlmError(
                f"environment variable {config.api_key_env} is not set; "
                "it must hold the API credential for live runs"
            )
        self.api_key = api_key

    def complete(self, key: str, messages, config: LlmRunConfig) -> str:
        """The response text; a failed request or a malformed body raises
        LlmError, so run_baseline retries it and then falls back."""
        import requests

        try:
            resp = requests.post(
                config.base_url.rstrip("/") + "/chat/completions",
                headers={"Authorization": f"Bearer {self.api_key}"},
                json={
                    "model": config.model,
                    "messages": messages,
                    "temperature": config.temperature,
                },
                timeout=config.timeout,
            )
            resp.raise_for_status()
        except requests.RequestException as exc:
            raise LlmError(f"request for instance {key} failed: {exc}") from exc
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise LlmError(f"malformed response body for instance {key}: {exc!r}") from exc
        if not isinstance(content, str):
            raise LlmError(f"malformed response body for instance {key}: content {content!r}")
        return content


def run_baseline(
    instances: Sequence,
    config: LlmRunConfig,
    transport,
    exemplars=DEFAULT_EXEMPLARS,
    transcript_out: Optional[object] = None,
):
    """One prediction per instance, in input order. Returns (pairs, log records).

    Parse/transport failures are retried up to config.max_retries, then the
    FALLBACK pair is recorded with status "fallback". The system message and
    exemplar turns, the prefix every prompt shares, are built once per run, and
    a record's messages hold only its query turn. When `transcript_out` (a path)
    is given, the records are written there and the prefix beside it
    (data.write_transcript), enabling later replay.
    """
    prefix = build_prefix(exemplars)
    predictions = []
    log = []
    for instance in instances:
        key = instance_key(instance)
        messages = build_prompt(instance, prefix)
        pair = None
        raw = None
        status = "fallback"
        for _ in range(config.max_retries + 1):
            try:
                raw = transport.complete(key, messages, config)
                pair = parse_llm_output(raw)
                status = "ok"
                break
            except LlmError as exc:
                raw = raw if raw is not None else f"<transport error: {exc}>"
        if pair is None:
            pair = FALLBACK
        predictions.append(pair)
        log.append(
            {
                "key": key,
                "messages": messages[len(prefix):],
                "response": raw,
                "parsed": format_va_string(pair),
                "status": status,
            }
        )
    n_fallback = sum(1 for r in log if r["status"] != "ok")
    if instances and n_fallback == len(instances):
        raise LlmError(f"all {n_fallback} requests failed; see run log")
    if transcript_out is not None:
        write_transcript(prefix, log, transcript_out)
    return predictions, log
