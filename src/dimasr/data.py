"""Dataset parsing, split protocols, and every on-disk JSON format.

Two dataset layouts are supported:

* ``task_json``: one JSON array of sentence objects, each with an id, a text,
  and a list of per-aspect annotations carrying "V#A" strings. Each field is
  read from the first of its key aliases in DEFAULT_FIELD_MAP that is present,
  so official files whose keys differ ("ID"/"id", "Aspect_VA"/"Quadruplet")
  are read as they are.
* ``simple_jsonl``: one sentence object per line:
  ``{"id": ..., "text": ..., "aspects": [{"aspect": ..., "va": "V#A"|null}]}``

Parsing yields one AspectInstance per given aspect, the unit training uses;
read_gold gives scoring the same checked aspects as keys and one array of VA
rows. Splits are deterministic functions of the id set, seed, and ratio, and
always operate at sentence level so no text leaks between the two sides.
read_jsonl, read_json, write_jsonl and write_json are the only code that
decodes or encodes these files, so every malformed file is a DataError naming
the file (and, for JSON Lines, the line); from_mapping is the only reader of
a config section or checkpoint manifest.
"""

from __future__ import annotations

import inspect
import json
import math
import re
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

VA_MIN = 1.0
VA_MAX = 9.0


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


class ConfigError(ValueError):
    """A malformed config setting or command-line choice."""


class MissingDependencyError(RuntimeError):
    """An optional package that a setting needs is not installed: a failure of
    the installation, not of the setting, so from_mapping passes it on."""


@dataclass(frozen=True)
class VAPair:
    """A (valence, arousal) point on the [1, 9] scale."""

    valence: float
    arousal: float

    def __post_init__(self):
        v, a = self.valence, self.arousal
        if type(v) is type(a) is float and VA_MIN <= v <= VA_MAX and VA_MIN <= a <= VA_MAX:
            return  # false for NaN and infinity, which the loop names
        for name, value in (("valence", self.valence), ("arousal", self.arousal)):
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value!r}")
            if not VA_MIN <= value <= VA_MAX:
                raise DataError(f"{name} {value} out of range [{VA_MIN}, {VA_MAX}]")


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


# ---------------------------------------------------------------------------
# JSON / JSON Lines files

def read_jsonl(path) -> Iterator[tuple]:
    """Yield ("file:line", object) for each non-blank line of a JSON Lines file.

    Bytes that are not UTF-8, malformed JSON, a string holding a lone
    surrogate and a line that is not a JSON object raise DataError naming the
    file and line."""
    # undecodable bytes become lone surrogates, so the line they are on is known
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DataError(f"{where}: not UTF-8 text") from None
            if line.startswith("{"):
                try:
                    obj, end = _DECODER.raw_decode(line)
                except (ValueError, RecursionError):
                    end = 0  # json.loads below names the fault
                if line[end:] in ("\n", ""):
                    if "\\" in line:  # only an escape decodes to a lone surrogate
                        _check_surrogates(line, where)
                    yield where, obj
                    continue
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
                raise DataError(f"{where}: malformed JSON ({getattr(exc, 'msg', exc)})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{where}: expected an object, got {type(obj).__name__}")
            if "\\" in line:
                _check_surrogates(line, where)
            yield where, obj


def read_json(path):
    """One whole JSON document. Bytes that are not UTF-8 and malformed JSON
    raise DataError naming the file, and a string holding a lone surrogate
    one naming the file and line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = json.loads(text)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise DataError(f"{path}: malformed JSON ({getattr(exc, 'msg', exc)})") from None
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        for lineno, line in enumerate(text.split("\n"), start=1):
            _check_surrogates(line, f"{path}:{lineno}")
    return obj


# a \uD800-\uDFFF escape, which decodes to half of a surrogate pair: with its
# other half it is one character, alone it is no character and no UTF-8 file
# can hold it
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# one JSON string literal; none spans lines, so a line's start is outside one
_STRING_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"')


def _check_surrogates(line: str, where: str) -> None:
    """Refuse a line of valid JSON with a string that decodes to a lone
    surrogate. Only a line holding a surrogate escape is looked into: the
    callers look for a backslash first, as a one-character `in` is a memchr
    and a longer needle costs about 0.4 us a line."""
    if _SURROGATE_ESCAPE.search(line):
        for literal in _STRING_LITERAL.findall(line):
            try:
                json.loads(literal).encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"{where}: a string holds a lone surrogate, "
                                "which is not Unicode text") from None


# json.loads(s) calls this decoder's raw_decode once it has checked s
_DECODER = json.JSONDecoder()
# json.dumps(obj, ensure_ascii=False) builds an encoder like this one per call
_ENCODER = json.JSONEncoder(ensure_ascii=False)
_LINES_PER_WRITE = 1024


def _line_encoder():
    """_ENCODER.encode for one file's objects, its C encoder built once instead
    of once per object: the arguments are the ones _ENCODER.iterencode passes,
    with a fresh markers dict, so a circular reference still raises."""
    make = json.encoder.c_make_encoder
    if make is None:
        return _ENCODER.encode
    e = _ENCODER
    encode = make({}, e.default, json.encoder.encode_basestring, e.indent, e.key_separator,
                  e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda obj: "".join(encode(obj, 0))


def write_jsonl(path, objs: Iterable[dict]) -> None:
    """Write each object as one line of JSON, non-ASCII text kept as is: the
    bytes of json.dumps(obj, ensure_ascii=False), _LINES_PER_WRITE lines a call."""
    lines = map(_line_encoder(), objs)
    with Path(path).open("w", encoding="utf-8") as fh:
        while batch := list(islice(lines, _LINES_PER_WRITE)):
            fh.write("\n".join(batch) + "\n")


def write_json(path, obj) -> None:
    """Write one JSON document, indented by two spaces. A NaN or infinite
    number, which standard JSON cannot hold, is a DataError naming the file."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    Path(path).write_text(text, encoding="utf-8")


# how a message names each type a setting may have
KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
         dict: "a mapping"}


def from_mapping(cls, obj, where: str):
    """cls(**obj) for a settings mapping read from a file, keyed by the annotated
    parameters of cls's __init__. An int passes as a float; a bool only as a bool.
    Any error in the mapping is a ConfigError naming `where` or the key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} settings must be a mapping, got {type(obj).__name__}")
    params = inspect.signature(cls, eval_str=True).parameters
    unknown = sorted(str(k) for k in set(obj) - set(params))
    if unknown:
        raise ConfigError(f"unknown {where} settings: {', '.join(unknown)}")
    missing = [name for name, p in params.items() if p.default is p.empty and name not in obj]
    if missing:
        raise ConfigError(f"missing {where} settings: {', '.join(missing)}")
    for key, value in obj.items():
        kind = params[key].annotation
        if not (type(value) is kind if isinstance(value, bool) or kind is bool
                else isinstance(value, (int, float) if kind is float else kind)):
            raise ConfigError(f"{where} setting {key!r} must be {KINDS[kind]}, got {value!r}")
    try:
        return cls(**obj)
    except MissingDependencyError:
        raise
    except RuntimeError as exc:  # TrainerError, ModelError, LlmError: a value out of range
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# dataset files

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
GOLD_FORMATS = FORMATS + ("instances",)  # or an instance file as `dimasr prepare` writes


def _pick(obj: Mapping, field: str, where: str, kinds=None):
    """obj's value under the first of the field's keys present. With `kinds`,
    refused unless its type is one of them."""
    for key in DEFAULT_FIELD_MAP[field]:
        if key in obj:
            value = obj[key]
            if kinds is None or type(value) in kinds:  # a bool is not an int here
                return value
            raise DataError(f"{where}: field {key!r} must be "
                            f"{' or '.join(KINDS[kind] for kind in kinds)}, got {value!r}")
    raise DataError(f"{where}: none of {DEFAULT_FIELD_MAP[field]} present")


def _dataset_aspects(path, format: str) -> Iterator[tuple]:
    """(where, sentence_id, aspect_index, text, aspect, va or None) for each aspect
    of a dataset file once every check up to it has passed, `va` as a string."""
    if format not in FORMATS:
        raise DataError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "simple_jsonl":
        objects = read_jsonl(path)
    else:
        data = read_json(path)
        if not isinstance(data, list):
            raise DataError(f"{path}: task_json file must contain a JSON array")
        objects = ((f"{path}[{idx}]", obj) for idx, obj in enumerate(data))
    seen = set()
    for where, obj in objects:
        if not isinstance(obj, dict):
            raise DataError(f"{where}: expected an object, got {type(obj).__name__}")
        rid = str(_pick(obj, "id", where, (str, int)))
        if not rid:
            raise DataError(f"{where}: sentence id must be non-empty")
        text = _pick(obj, "text", where, (str,))
        raw_aspects = _pick(obj, "aspect_list", where)
        if not isinstance(raw_aspects, list) or not raw_aspects:
            raise DataError(f"{where}: record {rid!r} has an empty aspect list")
        record = f"{where}: record {rid!r}"
        for index, entry in enumerate(raw_aspects):
            if isinstance(entry, dict):
                aspect = _pick(entry, "aspect", where, (str,))
                va = None
                for key in DEFAULT_FIELD_MAP["va"]:
                    if key in entry and entry[key] is not None:
                        va = str(entry[key])
                        break
            elif isinstance(entry, str):
                aspect, va = entry, None
            else:
                raise DataError(f"{record} has a malformed aspect entry")
            if not aspect.strip():
                raise DataError(f"{record}: aspect {index} must be non-empty")
            yield record, rid, index, text, aspect, va
        if rid in seen:
            raise DataError(f"{where}: duplicate sentence id {rid!r}")
        seen.add(rid)


def parse_dataset(path, format: str = "simple_jsonl") -> list:
    """Parse a dataset file into one AspectInstance per given aspect, in file
    order; aspect_index is the aspect's position within its sentence."""
    return [AspectInstance(rid, index, text, aspect, None if va is None else _line_va(va, where))
            for where, rid, index, text, aspect, va in _dataset_aspects(path, format)]


def split_dev_protocol(instances, ratio: float = 0.8, seed: int = 42) -> DatasetSplit:
    """Sentence-level shuffled split: `ratio` of sentences to train, rest to eval."""
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    ids = sorted({i.sentence_id for i in instances})
    if len(ids) < 2:
        raise DataError(f"need at least 2 distinct sentences to split, got {len(ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_train = min(max(int(round(ratio * len(ids))), 1), len(ids) - 1)
    eval_ids = {ids[i] for i in order[n_train:]}
    return DatasetSplit(tuple(i for i in instances if i.sentence_id not in eval_ids),
                        tuple(i for i in instances if i.sentence_id in eval_ids))


def check_disjoint(first, second, what: str) -> None:
    """Refuse two instance sets, named by `what`, that share a sentence id."""
    overlap = {i.sentence_id for i in first} & {i.sentence_id for i in second}
    if overlap:
        raise DataError(f"{what} sentence ids overlap: {sorted(overlap)[:5]}")


def merge_and_hold_out(train, dev, holdout_fraction: float = 0.1, seed: int = 42) -> DatasetSplit:
    """Merge train and dev pools, then reserve a sentence-level validation holdout."""
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError(
            f"holdout fraction must be in (0, 1), got {holdout_fraction} "
            "(a validation set is required for early stopping)"
        )
    check_disjoint(train, dev, "train/dev")
    return split_dev_protocol(list(train) + list(dev), ratio=1.0 - holdout_fraction, seed=seed)


# ---------------------------------------------------------------------------
# instance / prediction files

def _check_fields(obj: dict, where: str, names: Sequence[str]) -> None:
    """One line of an instance or prediction file holds every name in `names`,
    with an integer aspect_index."""
    for name in names:
        if name not in obj:
            raise DataError(f"{where}: missing field {name!r}")
    if type(obj["aspect_index"]) is not int:
        raise DataError(f"{where}: aspect_index must be an integer, got {obj['aspect_index']!r}")


def _line_va(s, where: str) -> VAPair:
    """parse_va_string for one line of a file; errors name `where`."""
    try:
        return parse_va_string(s)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def write_instances(instances, path) -> None:
    write_jsonl(path, ({
        "id": inst.sentence_id,
        "aspect_index": inst.aspect_index,
        "text": inst.text,
        "aspect": inst.aspect,
        "va": format_va_string(inst.gold) if inst.gold is not None else None,
    } for inst in instances))


def _instance_aspects(path) -> Iterator[tuple]:
    """_dataset_aspects's tuples for an instance file; only an absent or null "va" is none."""
    seen = set()
    for where, obj in read_jsonl(path):
        _check_fields(obj, where, ("id", "aspect_index", "text", "aspect"))
        for name in ("text", "aspect"):
            if not isinstance(obj[name], str):
                raise DataError(f"{where}: field {name!r} must be a string, got {obj[name]!r}")
        if not obj["aspect"].strip():
            raise DataError(f"{where}: field 'aspect' must be non-empty")
        key = (str(obj["id"]), obj["aspect_index"])
        if key in seen:
            raise DataError(f"{where}: duplicate instance {key}")
        seen.add(key)
        yield where, *key, obj["text"], obj["aspect"], obj.get("va")


def read_instances(path) -> list:
    return [AspectInstance(rid, index, text, aspect, None if va is None else _line_va(va, where))
            for where, rid, index, text, aspect, va in _instance_aspects(path)]


def write_predictions(instances, pairs: Sequence[VAPair], path) -> None:
    """One line per instance: sentence_id, aspect, aspect_index, "V#A" (2 decimals)."""
    if len(instances) != len(pairs):
        raise DataError(f"{len(instances)} instances vs {len(pairs)} predictions")
    write_jsonl(path, ({
        "id": inst.sentence_id,
        "aspect": inst.aspect,
        "aspect_index": inst.aspect_index,
        "va": format_va_string(pair),
    } for inst, pair in zip(instances, pairs)))


PROMPT_FILE = "prompt.json"  # an LLM run's shared prompt prefix, beside its transcript


def write_transcript(prefix: Sequence[dict], records: Iterable[dict], path) -> None:
    """An LLM run's transcript: the messages every prompt begins with, once, as
    PROMPT_FILE beside `path`, and one line per record at `path`."""
    write_json(Path(path).with_name(PROMPT_FILE), prefix)
    write_jsonl(path, records)


def _va_rows(column: list, wheres: list) -> np.ndarray:
    """The float64 (n, 2) rows of a column of "V#A" strings, as parse_va_string
    reads each. If any is bad, it is found line by line, named by `wheres`."""
    with suppress(TypeError, ValueError):  # a value that is not a string; not a number
        # one '#' in every string, so the split parts pair up string by string
        if set(map(str.count, column, repeat("#"))) == {1}:
            rows = np.array(list(map(float, "#".join(column).split("#")))).reshape(-1, 2)
            if np.all((rows >= VA_MIN) & (rows <= VA_MAX)):  # false for NaN
                return rows
    return np.array([(p.valence, p.arousal) for p in map(_line_va, column, wheres)]).reshape(-1, 2)


def read_gold(path, format: str = "simple_jsonl") -> tuple:
    """(keys, rows): each labeled aspect's (sentence_id, aspect_index) and float64 VA
    row, in file order, with parse_dataset's (or read_instances's) checks."""
    aspects = _instance_aspects(path) if format == "instances" else _dataset_aspects(path, format)
    keys, column, wheres = [], [], []
    try:
        for where, rid, index, _, _, va in aspects:
            if va is not None:
                keys.append((rid, index))
                column.append(va)
                wheres.append(where)
    except DataError:
        _va_rows(column, wheres)  # a bad "V#A" on an earlier line is named first
        raise
    return keys, _va_rows(column, wheres)


def read_predictions(path) -> tuple:
    """Load a prediction file as ({(sentence_id, aspect_index): row}, rows), where
    `rows` is the float64 (n, 2) array of the lines' (valence, arousal)."""
    index, column, wheres = {}, [], []
    try:
        for where, obj in read_jsonl(path):
            _check_fields(obj, where, ("id", "aspect_index", "va"))
            key = (str(obj["id"]), obj["aspect_index"])
            if key in index:
                raise DataError(f"{where}: duplicate prediction for {key}")
            index[key] = len(column)
            column.append(obj["va"])
            wheres.append(where)
    except DataError:
        _va_rows(column, wheres)  # a bad "V#A" on an earlier line is named first
        raise
    return index, _va_rows(column, wheres)
