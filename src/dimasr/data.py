"""Dataset parsing, instance expansion, and split protocols.

Two on-disk layouts are supported:

* ``task_json``: one JSON array of sentence objects, each with an id, a text,
  and a list of per-aspect annotations carrying "V#A" strings. Each field is
  read from the first of its key aliases in DEFAULT_FIELD_MAP that is present,
  so official files whose keys differ ("ID"/"id", "Aspect_VA"/"Quadruplet")
  are read as they are.
* ``simple_jsonl``: one sentence object per line:
  ``{"id": ..., "text": ..., "aspects": [{"aspect": ..., "va": "V#A"|null}]}``

All operations are pure; splits are deterministic functions of the id set,
seed, and ratio, and always operate at sentence level so no text leaks
between the two sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

VA_MIN = 1.0
VA_MAX = 9.0


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


@dataclass(frozen=True)
class VAPair:
    """A (valence, arousal) point on the [1, 9] scale."""

    valence: float
    arousal: float

    def __post_init__(self):
        for name, value in (("valence", self.valence), ("arousal", self.arousal)):
            if not np.isfinite(value):
                raise DataError(f"{name} must be finite, got {value!r}")
            if not VA_MIN <= value <= VA_MAX:
                raise DataError(f"{name} {value} out of range [{VA_MIN}, {VA_MAX}]")


@dataclass(frozen=True)
class SentenceRecord:
    id: str
    text: str
    aspects: tuple  # of (aspect: str, gold: Optional[VAPair])

    def __post_init__(self):
        if not self.id:
            raise DataError("sentence id must be non-empty")
        if not self.aspects:
            raise DataError(f"record {self.id!r}: empty aspect list")


@dataclass(frozen=True)
class AspectInstance:
    """One (text, aspect) sample; the unit both training and scoring use."""

    sentence_id: str
    aspect_index: int
    text: str
    aspect: str
    gold: Optional[VAPair] = None

    @property
    def key(self) -> tuple:
        return (self.sentence_id, self.aspect_index)


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple  # of AspectInstance
    eval: tuple  # of AspectInstance
    seed: int
    ratio: float


def parse_va_string(s: str) -> VAPair:
    """Parse a "V#A" string into a VAPair. No clipping: gold values must be in range."""
    if not isinstance(s, str):
        raise DataError(f"expected a \"V#A\" string, got {s!r}")
    parts = s.split("#")
    if len(parts) != 2:
        raise DataError(f"expected exactly one '#' in VA string, got {s!r}")
    try:
        v, a = float(parts[0]), float(parts[1])
    except ValueError:
        raise DataError(f"non-numeric component in VA string {s!r}") from None
    return VAPair(v, a)


def format_va_string(pair: VAPair) -> str:
    """Canonical two-decimal "V#A" rendering."""
    return f"{pair.valence:.2f}#{pair.arousal:.2f}"


# Official-file key aliases for the task_json layout. Each logical field maps
# to the candidate keys tried in order.
DEFAULT_FIELD_MAP = {
    "id": ("ID", "id"),
    "text": ("Text", "text"),
    "aspect_list": ("Aspect_VA", "Quadruplet", "aspects"),
    "aspect": ("Aspect", "aspect"),
    "va": ("VA", "va"),
}

FORMATS = ("task_json", "simple_jsonl")


def _pick(obj: Mapping, field: str, where: str):
    for key in DEFAULT_FIELD_MAP[field]:
        if key in obj:
            return obj[key]
    raise DataError(f"{where}: none of {DEFAULT_FIELD_MAP[field]} present")


def _record_from_obj(obj, where: str) -> SentenceRecord:
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected an object, got {type(obj).__name__}")
    rid = str(_pick(obj, "id", where))
    text = _pick(obj, "text", where)
    raw_aspects = _pick(obj, "aspect_list", where)
    if not isinstance(raw_aspects, list) or not raw_aspects:
        raise DataError(f"{where}: record {rid!r} has an empty aspect list")
    aspects = []
    for entry in raw_aspects:
        if isinstance(entry, dict):
            aspect = _pick(entry, "aspect", where)
            va = None
            for key in DEFAULT_FIELD_MAP["va"]:
                if key in entry and entry[key] is not None:
                    va = entry[key]
                    break
        elif isinstance(entry, str):
            aspect, va = entry, None
        else:
            raise DataError(f"{where}: record {rid!r} has a malformed aspect entry")
        gold = None
        if va is not None:
            try:
                gold = parse_va_string(str(va))
            except DataError as exc:
                raise DataError(f"{where}: record {rid!r}: {exc}") from None
        aspects.append((str(aspect), gold))
    return SentenceRecord(rid, str(text), tuple(aspects))


def parse_dataset(path, format: str = "simple_jsonl"):
    """Parse a dataset file into SentenceRecords, preserving file order."""
    if format not in FORMATS:
        raise DataError(f"unknown format {format!r}, expected one of {FORMATS}")
    path = Path(path)
    records = []
    seen = set()

    if format == "simple_jsonl":
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
                records.append(_record_from_obj(obj, f"{path}:{lineno}"))
    else:
        with path.open(encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: malformed JSON ({exc.msg})") from None
        if not isinstance(data, list):
            raise DataError(f"{path}: task_json file must contain a JSON array")
        for idx, obj in enumerate(data):
            records.append(_record_from_obj(obj, f"{path}[{idx}]"))

    for rec in records:
        if rec.id in seen:
            raise DataError(f"{path}: duplicate sentence id {rec.id!r}")
        seen.add(rec.id)
    return records


def expand_instances(records: Iterable[SentenceRecord]):
    """Flatten sentences into independent per-aspect instances."""
    instances = []
    for rec in records:
        for idx, (aspect, gold) in enumerate(rec.aspects):
            instances.append(AspectInstance(rec.id, idx, rec.text, aspect, gold))
    return instances


def _sentence_ids_in_order(instances) -> list:
    seen = {}
    for inst in instances:
        seen.setdefault(inst.sentence_id, None)
    return list(seen)


def _split_by_sentences(instances, eval_ids):
    eval_ids = set(eval_ids)
    train = tuple(i for i in instances if i.sentence_id not in eval_ids)
    evals = tuple(i for i in instances if i.sentence_id in eval_ids)
    return train, evals


def split_dev_protocol(instances, ratio: float = 0.8, seed: int = 42) -> DatasetSplit:
    """Sentence-level shuffled split: `ratio` of sentences to train, rest to eval."""
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    ids = sorted(_sentence_ids_in_order(instances))
    if len(ids) < 2:
        raise DataError(f"need at least 2 distinct sentences to split, got {len(ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_train = int(round(ratio * len(ids)))
    n_train = min(max(n_train, 1), len(ids) - 1)
    eval_ids = {ids[i] for i in order[n_train:]}
    train, evals = _split_by_sentences(instances, eval_ids)
    return DatasetSplit(train, evals, seed=seed, ratio=ratio)


def merge_and_hold_out(train, dev, holdout_fraction: float = 0.1, seed: int = 42) -> DatasetSplit:
    """Merge train and dev pools, then reserve a sentence-level validation holdout."""
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError(
            f"holdout fraction must be in (0, 1), got {holdout_fraction} "
            "(a validation set is required for early stopping)"
        )
    train_ids = set(i.sentence_id for i in train)
    dev_ids = set(i.sentence_id for i in dev)
    overlap = train_ids & dev_ids
    if overlap:
        raise DataError(f"train/dev sentence ids overlap: {sorted(overlap)[:5]}")
    merged = list(train) + list(dev)
    split = split_dev_protocol(merged, ratio=1.0 - holdout_fraction, seed=seed)
    return DatasetSplit(split.train, split.eval, seed=seed, ratio=1.0 - holdout_fraction)


# ---------------------------------------------------------------------------
# instance / prediction file io

def _json_object(line: str, path, lineno: int, fields: Sequence[str]) -> dict:
    """One line of an instance or prediction file: an object that holds every
    name in `fields`, with an integer aspect_index."""
    where = f"{path}:{lineno}"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: malformed JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected an object, got {type(obj).__name__}")
    for name in fields:
        if name not in obj:
            raise DataError(f"{where}: missing field {name!r}")
    if type(obj["aspect_index"]) is not int:
        raise DataError(f"{where}: aspect_index must be an integer, got {obj['aspect_index']!r}")
    return obj


def _line_va(s, path, lineno: int) -> VAPair:
    """parse_va_string for one line of a file; errors name the file and line."""
    try:
        return parse_va_string(s)
    except DataError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None


def write_instances(instances, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for inst in instances:
            obj = {
                "id": inst.sentence_id,
                "aspect_index": inst.aspect_index,
                "text": inst.text,
                "aspect": inst.aspect,
                "va": format_va_string(inst.gold) if inst.gold is not None else None,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_instances(path):
    instances = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = _json_object(line, path, lineno, ("id", "aspect_index", "text", "aspect"))
            gold = _line_va(obj["va"], path, lineno) if obj.get("va") else None
            instances.append(
                AspectInstance(str(obj["id"]), obj["aspect_index"], obj["text"], obj["aspect"], gold)
            )
    return instances


def write_predictions(instances, pairs: Sequence[VAPair], path) -> None:
    """One line per instance: sentence_id, aspect, aspect_index, "V#A" (2 decimals)."""
    if len(instances) != len(pairs):
        raise DataError(f"{len(instances)} instances vs {len(pairs)} predictions")
    with Path(path).open("w", encoding="utf-8") as fh:
        for inst, pair in zip(instances, pairs):
            obj = {
                "id": inst.sentence_id,
                "aspect": inst.aspect,
                "aspect_index": inst.aspect_index,
                "va": format_va_string(pair),
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_predictions(path) -> dict:
    """Load a prediction file as {(sentence_id, aspect_index): VAPair}."""
    preds = {}
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = _json_object(line, path, lineno, ("id", "aspect_index", "va"))
            key = (str(obj["id"]), obj["aspect_index"])
            if key in preds:
                raise DataError(f"{path}:{lineno}: duplicate prediction for {key}")
            preds[key] = _line_va(obj["va"], path, lineno)
    return preds
