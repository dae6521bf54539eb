"""Seeded synthetic corpus for the benchmark.

Everything the program under test reads is generated here from the workload
seed, so the same seed always gives byte-identical input files:

* ``train.json``: the training corpus in the ``task_json`` layout, which is
  what ``dimasr prepare`` reads (so that parser is exercised).
* ``test.jsonl``: held-out sentences with gold labels in the ``simple_jsonl``
  layout, the gold file ``dimasr evaluate`` scores against.
* ``test_instances.jsonl``: the same sentences expanded into the instance
  format that ``dimasr predict`` and ``dimasr llm-baseline`` read.
* ``transcript.jsonl``: a recorded LLM transcript for ``--replay``, with a
  fixed share of keys whose first response is unparseable and of keys whose
  responses are all unparseable.
* ``llm.yaml``: the LLM run config for the replayed baseline.

Sentences have 8-40 tokens and 1-3 aspects; those counts are the same for
every seed, so every seed gives the same input size. Each word carries latent
(valence, arousal) scores; an aspect's gold VA is the scaled mean of the latent
scores in a window around it, plus a per-aspect-term bias and noise, so a model
can learn part of the signal and validation RMSE means something. Word scores
(weighted by word frequency) and biases are centred on 0, so gold VA centres
on CENTER whatever the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_WORDS = 4000
N_ASPECT_TERMS = 400
N_STOPWORDS = 100
CENTER = (6.2, 5.6)  # mean gold (valence, arousal): reviews lean positive
WINDOW = 4
FIRST_BAD_SHARE = 0.10  # keys whose first response is unparseable, second is fine
ALWAYS_BAD_SHARE = 0.02  # keys whose responses are all unparseable
MAX_RETRIES = 2

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "sh", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_GARBAGE = (
    "I cannot determine this.",
    "The sentiment is unclear from the text.",
    "Valence and arousal are both hard to say here.",
)


@dataclass(frozen=True)
class CorpusFiles:
    """Paths of one generated corpus plus the counts the output checks need."""

    root: Path
    train_json: Path
    test_jsonl: Path
    test_instances: Path
    transcript: Path
    llm_config: Path
    train_instances: int
    test_instance_keys: tuple  # of (sentence_id, aspect_index), file order
    first_bad_keys: frozenset  # of "id::index"
    always_bad_keys: frozenset

    @property
    def expected_fallbacks(self) -> int:
        return len(self.always_bad_keys)

    @property
    def expected_retries(self) -> int:
        return len(self.first_bad_keys) + MAX_RETRIES * len(self.always_bad_keys)


def _lexicon(rng):
    n_draw = 2 * (N_WORDS + N_ASPECT_TERMS)
    n_syl = rng.integers(2, 5, size=n_draw)
    onsets = rng.integers(0, len(_ONSETS), size=(n_draw, 4))
    vowels = rng.integers(0, len(_VOWELS), size=(n_draw, 4))
    words = {}
    for i in range(n_draw):
        word = "".join(_ONSETS[o] + _VOWELS[v] for o, v in zip(onsets[i, : n_syl[i]], vowels[i]))
        words.setdefault(word, None)
    words = list(words)[: N_WORDS + N_ASPECT_TERMS]
    vocab, aspects = words[:N_WORDS], words[N_WORDS:]
    freq = 1.0 / np.arange(1, N_WORDS + 1) ** 0.9
    prob = freq / freq.sum()
    latent = rng.normal(0.0, 1.0, size=(N_WORDS, 2))
    latent[:N_STOPWORDS] = 0.0  # the most frequent words carry no sentiment
    # centre the expected word score and the aspect biases on 0, so that gold
    # VA centres on CENTER for every seed and the validation RMSE of a model
    # that has not yet learned the centre does not depend on the seed's draw
    content = prob[N_STOPWORDS:] / prob[N_STOPWORDS:].sum()
    latent[N_STOPWORDS:] -= content @ latent[N_STOPWORDS:]
    bias = rng.normal(0.0, 0.6, size=(N_ASPECT_TERMS, 2))
    bias -= bias.mean(axis=0)
    return vocab, aspects, latent.tolist(), bias.tolist(), prob


def _sentences(rng, lexicon, n, prefix, shape_seed):
    """Yield (id, text, [(aspect, v, a)]) for n sentences.

    Sentence lengths and aspect counts come from `shape_seed`, which does not
    depend on the workload seed: every seed then yields the same number of
    instances, tokens and (because prepare's split depends only on the sorted
    id set) fit instances, so throughput is compared at one input size.
    """
    vocab, aspects, latent, bias, prob = lexicon
    shape = np.random.default_rng(shape_seed)
    n_tokens = shape.integers(8, 41, size=n)  # including the final period
    n_aspects = shape.integers(1, 4, size=n)
    word_ids = rng.choice(N_WORDS, size=int(np.sum(n_tokens - 1 - n_aspects)), p=prob)
    aspect_ids = np.argsort(rng.random((n, N_ASPECT_TERMS)), axis=1)[:, :3]
    slot_keys = rng.random((n, 39))
    slot_keys[np.arange(39) >= (n_tokens - 1)[:, None]] = np.inf
    slot_order = np.argsort(slot_keys, axis=1)[:, :3]
    noise = rng.normal(0.0, 0.35, size=(n, 3, 2)).tolist()
    cursor = 0
    for s in range(n):
        length, k = int(n_tokens[s]) - 1, int(n_aspects[s])
        slots = dict(zip(sorted(slot_order[s, :k].tolist()), aspect_ids[s, :k].tolist()))
        words = word_ids[cursor : cursor + length - k].tolist()
        cursor += length - k
        tokens, lat = [], []
        for p in range(length):
            if p in slots:
                tokens.append(aspects[slots[p]])
                lat.append(None)
            else:
                w = words.pop()
                tokens.append(vocab[w])
                lat.append(w)
        labels = []
        for j, (p, aid) in enumerate(slots.items()):
            window = [latent[w] for w in lat[max(p - WINDOW, 0) : p + WINDOW + 1] if w is not None]
            va = []
            for d in (0, 1):
                signal = 2.2 * sum(x[d] for x in window) / len(window) if window else 0.0
                va.append(round(min(max(CENTER[d] + signal + bias[aid][d] + noise[s][j][d], 1.0), 9.0), 2))
            labels.append((aspects[aid], *va))
        yield f"{prefix}{s}", " ".join(tokens) + " .", labels


def _va(v, a) -> str:
    return f"{v:.2f}#{a:.2f}"


def generate(out_dir, seed: int, train_sentences: int, test_sentences: int) -> CorpusFiles:
    """Write one corpus for `seed` into `out_dir` and describe it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 20260417])
    lexicon = _lexicon(rng)

    train = []
    train_instances = 0
    for sid, text, labels in _sentences(rng, lexicon, train_sentences, f"tr{seed}-", 1):
        train.append({"ID": sid, "Text": text,
                      "Aspect_VA": [{"Aspect": asp, "VA": _va(v, a)} for asp, v, a in labels]})
        train_instances += len(labels)
    train_json = out / "train.json"
    train_json.write_text(json.dumps(train, ensure_ascii=False), encoding="utf-8")

    test_jsonl = out / "test.jsonl"
    test_instances = out / "test_instances.jsonl"
    keys, golds = [], []
    with test_jsonl.open("w", encoding="utf-8") as gold_fh, \
            test_instances.open("w", encoding="utf-8") as inst_fh:
        for sid, text, labels in _sentences(rng, lexicon, test_sentences, f"te{seed}-", 2):
            gold_fh.write(json.dumps({"id": sid, "text": text, "aspects": [
                {"aspect": asp, "va": _va(v, a)} for asp, v, a in labels]}) + "\n")
            for k, (asp, v, a) in enumerate(labels):
                inst_fh.write(json.dumps({"id": sid, "aspect_index": k, "text": text,
                                          "aspect": asp, "va": _va(v, a)}) + "\n")
                keys.append((sid, k))
                golds.append((v, a))

    n = len(keys)
    order = rng.permutation(n)
    n_first = int(round(FIRST_BAD_SHARE * n))
    n_always = min(int(round(ALWAYS_BAD_SHARE * n)), n - 1)
    first_bad = {f"{keys[i][0]}::{keys[i][1]}" for i in order[:n_first]}
    always_bad = {f"{keys[i][0]}::{keys[i][1]}" for i in order[n_first : n_first + n_always]}
    transcript = out / "transcript.jsonl"
    llm_noise = rng.normal(0.0, 0.9, size=(n, 2)).tolist()
    style = rng.integers(0, 3, size=n).tolist()
    with transcript.open("w", encoding="utf-8") as fh:
        for i, ((sid, k), (v, a)) in enumerate(zip(keys, golds)):
            key = f"{sid}::{k}"
            garbage = _GARBAGE[i % len(_GARBAGE)]
            if key in always_bad:
                fh.write(json.dumps({"key": key, "response": garbage}) + "\n")
                continue
            pv, pa = (min(max(x + e, 1.0), 9.0) for x, e in zip((v, a), llm_noise[i]))
            answer = ("{}", "Answer: {}.", "The scores are {} for this aspect.")[style[i]]
            if key in first_bad:
                fh.write(json.dumps({"key": key, "response": garbage}) + "\n")
            fh.write(json.dumps({"key": key, "response": answer.format(_va(pv, pa))}) + "\n")

    llm_config = out / "llm.yaml"
    llm_config.write_text(
        f"llm:\n  model: replayed\n  temperature: 0.1\n  max_retries: {MAX_RETRIES}\n",
        encoding="utf-8",
    )
    return CorpusFiles(out, train_json, test_jsonl, test_instances, transcript, llm_config,
                       train_instances, tuple(keys), frozenset(first_bad), frozenset(always_bad))
