import dataclasses
import inspect
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dimasr.data import (
    AspectInstance,
    ConfigError,
    DataError,
    VAPair,
    format_va_string,
    from_mapping,
    merge_and_hold_out,
    parse_dataset,
    parse_va_string,
    read_instances,
    read_gold,
    read_json,
    read_jsonl,
    read_predictions,
    split_dev_protocol,
    write_instances,
    write_json,
    write_jsonl,
)
from dimasr.llm import LlmRunConfig, ReplayTransport
from dimasr.model import (CheckpointManifest, DimASRModel, TinyEncoder,
                          load_checkpoint, make_encoder, save_checkpoint)
from dimasr.trainer import TrainConfig
from .conftest import FIXTURES, make_instances


class TestParseVaString:
    def test_basic(self):
        assert parse_va_string("7.50#6.80") == VAPair(7.50, 6.80)

    def test_midpoint(self):
        assert parse_va_string("5.00#5.00") == VAPair(5.00, 5.00)

    def test_missing_separator(self):
        with pytest.raises(DataError, match="#"):
            parse_va_string("7.5")

    def test_too_many_fields(self):
        with pytest.raises(DataError):
            parse_va_string("1.0#2.0#3.0")

    def test_non_numeric(self):
        with pytest.raises(DataError, match="non-numeric"):
            parse_va_string("abc#5.0")

    def test_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            parse_va_string("10.0#4.0")

    @given(
        st.integers(100, 900).map(lambda x: x / 100.0),
        st.integers(100, 900).map(lambda x: x / 100.0),
    )
    def test_round_trip(self, v, a):
        s = f"{v:.2f}#{a:.2f}"
        assert format_va_string(parse_va_string(s)) == s


class TestVAPair:
    def test_bounds_enforced(self):
        with pytest.raises(DataError):
            VAPair(0.5, 5.0)
        with pytest.raises(DataError):
            VAPair(5.0, 9.01)

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            VAPair(float("nan"), 5.0)

    @given(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
        st.integers(-2 ** 63, 2 ** 63 - 1),
    ))
    @example(float("nan"))
    @example(float("-inf"))
    @example(-0.0)
    @example(5e-324)
    @example(np.float64("inf"))
    def test_math_and_numpy_finiteness_agree(self, value):
        # the check VAPair makes (math.isfinite) decides as np.isfinite would
        assert math.isfinite(value) == bool(np.isfinite(value))
        valid = math.isfinite(value) and 1.0 <= value <= 9.0
        try:
            VAPair(value, 5.0)
            VAPair(5.0, value)
        except DataError:
            assert not valid
        else:
            assert valid


def _checked_by_loop(valence, arousal):
    """VAPair's check as one loop over both values, as it was before the
    one-comparison path: the reference its accepts and refusals must match."""
    for name, value in (("valence", valence), ("arousal", arousal)):
        if not math.isfinite(value):
            raise DataError(f"{name} must be finite, got {value!r}")
        if not 1.0 <= value <= 9.0:
            raise DataError(f"{name} {value} out of range [1.0, 9.0]")


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the type and the message are what is compared
        return type(exc), str(exc)
    return None


VA_VALUES = [1.0, 9.0, 5.5, math.nextafter(1.0, 0.0), math.nextafter(9.0, 10.0),
             math.nextafter(1.0, 2.0), math.nextafter(9.0, 0.0), -0.0, float("nan"),
             float("inf"), -float("inf"), 0, 1, 5, 9, 10, True, False, np.float64(9.0),
             np.float64(math.nextafter(9.0, 10.0)), np.float64("nan"), "5", None]


def test_va_pair_checks_as_the_loop_did():
    """Every pair of values, in range or just outside, NaN, infinite, an int,
    a bool or no number: VAPair accepts what the loop accepts, keeping the
    values as given, and refuses the rest with the loop's exception and
    message."""
    for valence, arousal in itertools.product(VA_VALUES, repeat=2):
        want = _outcome(_checked_by_loop, valence, arousal)
        assert _outcome(VAPair, valence, arousal) == want, (valence, arousal)
        if want is None:
            pair = VAPair(valence, arousal)
            assert type(pair.valence) is type(valence) and type(pair.arousal) is type(arousal)


class TestParseDataset:
    def test_simple_jsonl(self):
        instances = parse_dataset(FIXTURES / "tiny_dataset.jsonl", "simple_jsonl")
        assert [i.sentence_id for i in instances][:5] == ["s1", "s2", "s3", "s3", "s4"]
        assert instances[0] == AspectInstance("s1", 0, "the food was absolutely amazing!",
                                              "food", VAPair(8.50, 8.25))
        assert instances[4].aspect == "NULL"

    def test_task_json(self):
        instances = parse_dataset(FIXTURES / "tiny_dataset_task.json", "task_json")
        assert [i.key for i in instances] == [("t1", 0), ("t2", 0), ("t2", 1), ("t3", 0)]
        assert (instances[2].aspect, instances[2].gold) == ("battery", VAPair(2.80, 6.20))
        # alternate aspect-list key is tolerated
        assert instances[3].aspect == "NULL"

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "text": "t", "aspects": [{"aspect": "x"}]}\nnot json\n')
        with pytest.raises(DataError, match=":2"):
            parse_dataset(p, "simple_jsonl")

    def test_empty_aspect_list(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "text": "t", "aspects": []}\n')
        with pytest.raises(DataError, match="empty aspect list"):
            parse_dataset(p, "simple_jsonl")

    def test_out_of_range_names_record(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "r9", "text": "t", "aspects": [{"aspect": "x", "va": "10.0#4.0"}]}\n')
        with pytest.raises(DataError, match="r9"):
            parse_dataset(p, "simple_jsonl")

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        line = '{"id": "a", "text": "t", "aspects": [{"aspect": "x"}]}\n'
        p.write_text(line + line)
        with pytest.raises(DataError, match="duplicate"):
            parse_dataset(p, "simple_jsonl")

    def test_unknown_format(self):
        with pytest.raises(DataError, match="unknown format"):
            parse_dataset(FIXTURES / "tiny_dataset.jsonl", "csv")


def _fixture_sentences():
    lines = (FIXTURES / "tiny_dataset.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


class TestExpandInstances:
    """parse_dataset expands each sentence into one instance per given aspect."""

    def test_counts(self):
        instances = parse_dataset(FIXTURES / "tiny_dataset.jsonl")
        assert len(instances) == sum(len(s["aspects"]) for s in _fixture_sentences()) == 13

    def test_shared_text(self):
        instances = [i for i in parse_dataset(FIXTURES / "tiny_dataset.jsonl")
                     if i.sentence_id == "s3"]
        assert len(instances) == 2  # s3 has 2 aspects
        assert instances[0].text == instances[1].text
        assert (instances[0].aspect_index, instances[1].aspect_index) == (0, 1)

    def test_empty(self, tmp_path):
        # blank lines, with or without a carriage return, are skipped
        p = tmp_path / "blank.jsonl"
        p.write_bytes(b"\n  \r\n\n")
        assert parse_dataset(p) == []

    def test_preserves_pair_multiset(self):
        instances = parse_dataset(FIXTURES / "tiny_dataset.jsonl")
        expected = sorted((s["text"], a["aspect"]) for s in _fixture_sentences()
                          for a in s["aspects"])
        assert sorted((i.text, i.aspect) for i in instances) == expected


class TestSplitDevProtocol:
    def test_counts_80_20(self):
        instances = make_instances(10)
        split = split_dev_protocol(instances, ratio=0.8, seed=42)
        assert len({i.sentence_id for i in split.train}) == 8
        assert len({i.sentence_id for i in split.eval}) == 2

    def test_deterministic(self):
        instances = make_instances(50)
        a = split_dev_protocol(instances, seed=42)
        b = split_dev_protocol(instances, seed=42)
        assert a.train == b.train and a.eval == b.eval

    def test_seed_changes_membership(self):
        instances = make_instances(100)
        a = {i.sentence_id for i in split_dev_protocol(instances, seed=1).eval}
        b = {i.sentence_id for i in split_dev_protocol(instances, seed=2).eval}
        assert a != b

    def test_sentence_level_no_leak(self):
        # every sentence has 2 instances; both must land on the same side
        doubled = []
        for inst in make_instances(20):
            doubled.append(inst)
            doubled.append(
                type(inst)(inst.sentence_id, 1, inst.text, inst.aspect + "2", inst.gold)
            )
        split = split_dev_protocol(doubled, seed=3)
        train_ids = {i.sentence_id for i in split.train}
        eval_ids = {i.sentence_id for i in split.eval}
        assert not train_ids & eval_ids
        assert len(split.train) + len(split.eval) == len(doubled)
        assert all(len([i for i in split.train if i.sentence_id == s]) in (0, 2) for s in train_ids)

    def test_too_few_sentences(self):
        with pytest.raises(DataError, match="at least 2"):
            split_dev_protocol(make_instances(1))

    def test_bad_ratio(self):
        with pytest.raises(DataError):
            split_dev_protocol(make_instances(10), ratio=1.0)


class TestMergeAndHoldOut:
    def test_sizes(self):
        train = make_instances(90, prefix="tr")
        dev = make_instances(10, prefix="de")
        split = merge_and_hold_out(train, dev, holdout_fraction=0.1, seed=42)
        assert len({i.sentence_id for i in split.eval}) == 10
        assert len({i.sentence_id for i in split.train}) == 90

    def test_zero_holdout_rejected(self):
        with pytest.raises(DataError, match="validation"):
            merge_and_hold_out(make_instances(9, prefix="a"), make_instances(1, prefix="b"),
                               holdout_fraction=0.0)

    def test_overlap_rejected(self):
        train = make_instances(5)
        with pytest.raises(DataError, match="overlap"):
            merge_and_hold_out(train, train[:1])

    def test_deterministic(self):
        train = make_instances(30, prefix="tr")
        dev = make_instances(5, prefix="de")
        a = merge_and_hold_out(train, dev, seed=7)
        b = merge_and_hold_out(train, dev, seed=7)
        assert a.eval == b.eval


class TestInstanceIo:
    def test_round_trip(self, tmp_path):
        instances = parse_dataset(FIXTURES / "tiny_dataset.jsonl")
        path = tmp_path / "inst.jsonl"
        write_instances(instances, path)
        assert read_instances(path) == instances


# text that the JSON encoder escapes or keeps: quotes, backslashes, control
# characters, line separators, non-BMP characters and a paired surrogate as
# two code points, which no UTF-8 file can hold
_TEXT_PIECES = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "caf\u00e9", "\u4e2d",
                "\U0001f600", "\ud83d\ude00", "word", " "]
_texts = st.lists(st.sampled_from(_TEXT_PIECES), max_size=4).map("".join)
_transcript_records = st.builds(
    lambda key, text, response, status: {
        "key": key, "messages": [{"role": "user", "content": text}], "response": response,
        "parsed": "5.00#5.00", "status": status},
    _texts, _texts, _texts, st.sampled_from(["ok", "fallback"]))
_writer_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_texts, children,
                                                                     max_size=3),
    max_leaves=8)
_writer_objects = _transcript_records | st.dictionaries(_texts, _writer_values, max_size=4)


@pytest.fixture(params=["c-encoder", "python-encoder"])
def encoder(request, monkeypatch):
    """write_jsonl with the C encoder built once per file, or, without it,
    with JSONEncoder.encode per object."""
    if request.param == "python-encoder":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    else:
        assert json.encoder.c_make_encoder is not None
    return request.param


def _assert_written_as_dumps(path, objs):
    want = "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs)
    try:
        want_bytes = want.encode("utf-8")
    except UnicodeEncodeError:  # a surrogate code point: no writer can encode it
        with pytest.raises(UnicodeEncodeError):
            write_jsonl(path, objs)
        return
    write_jsonl(path, iter(objs))
    assert path.read_bytes() == want_bytes


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(objs=st.lists(_writer_objects, max_size=5))
@example(objs=[{"text": 'a "quoted" \\ back\x00slash', "n": -7, "x": [1.5, float("nan")]}])
@example(objs=[{"text": "\U0001f600 \u2028 \u4e2d"}, {"text": "\ud83d\ude00"}])
def test_write_jsonl_writes_what_json_dumps_does(tmp_path, encoder, objs):
    """Each line is json.dumps(obj, ensure_ascii=False) and its newline, with the
    encoder reused across a file's objects and with the per-object fallback."""
    _assert_written_as_dumps(tmp_path / "out.jsonl", objs)


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_write_jsonl_across_write_batches(tmp_path, encoder, n):
    objs = [{"id": f"s{i}", "aspect_index": i % 3, "text": "\u00e9\"\\" * (i % 4),
             "messages": [{"role": "user", "content": str(i)}]} for i in range(n)]
    _assert_written_as_dumps(tmp_path / "out.jsonl", objs)


def test_write_jsonl_refuses_a_circular_reference(tmp_path, encoder):
    """The reused encoder keeps JSONEncoder's circular reference check, and a
    refused file leaves the next file's encoder unaffected."""
    loop = {"id": "s1", "messages": []}
    loop["messages"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        write_jsonl(tmp_path / "loop.jsonl", [{"id": "s0"}, loop])
    _assert_written_as_dumps(tmp_path / "next.jsonl", [{"id": "s0", "messages": [[], []]}])


def _write_lines(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    return path


GOOD_INSTANCE = {"id": "s1", "aspect_index": 0, "text": "fine food", "aspect": "food",
                 "va": "6.00#5.00"}
GOOD_PREDICTION = {"id": "s1", "aspect": "food", "aspect_index": 0, "va": "6.00#5.00"}


class TestMalformedLines:
    """Each reader names the file and line of a malformed record."""

    def test_instance_without_aspect_index(self, tmp_path):
        bad = {k: v for k, v in GOOD_INSTANCE.items() if k != "aspect_index"}
        path = _write_lines(tmp_path / "inst.jsonl", [GOOD_INSTANCE, bad])
        with pytest.raises(DataError, match=r"inst\.jsonl:2: missing field 'aspect_index'"):
            read_instances(path)

    @pytest.mark.parametrize("value", ["first", "3", 1.7, 3.0, float("inf"), True, None])
    def test_instance_with_non_integer_aspect_index(self, tmp_path, value):
        path = _write_lines(tmp_path / "inst.jsonl", [dict(GOOD_INSTANCE, aspect_index=value)])
        with pytest.raises(DataError, match=r"inst\.jsonl:1: aspect_index must be an integer"):
            read_instances(path)

    def test_prediction_with_fractional_aspect_index(self, tmp_path):
        path = _write_lines(tmp_path / "pred.jsonl", [dict(GOOD_PREDICTION, aspect_index=1.7)])
        with pytest.raises(DataError, match=r"pred\.jsonl:1: aspect_index must be an integer, got 1\.7"):
            read_predictions(path)

    def test_prediction_with_null_va(self, tmp_path):
        path = _write_lines(tmp_path / "pred.jsonl", [dict(GOOD_PREDICTION, va=None)])
        with pytest.raises(DataError, match=r"pred\.jsonl:1: expected a \"V#A\" string, got None"):
            read_predictions(path)

    def test_prediction_without_aspect_index(self, tmp_path):
        bad = {k: v for k, v in GOOD_PREDICTION.items() if k != "aspect_index"}
        path = _write_lines(tmp_path / "pred.jsonl", [GOOD_PREDICTION, bad])
        with pytest.raises(DataError, match=r"pred\.jsonl:2: missing field 'aspect_index'"):
            read_predictions(path)

    @pytest.mark.parametrize("name", ["text", "aspect"])
    def test_instance_with_non_string_field(self, tmp_path, name):
        path = _write_lines(tmp_path / "inst.jsonl", [dict(GOOD_INSTANCE, **{name: 5})])
        with pytest.raises(DataError, match=rf"inst\.jsonl:1: field '{name}' must be a string, got 5"):
            read_instances(path)

    @pytest.mark.parametrize("line,message", [
        (b"\xff\xfe{}", "not UTF-8 text"),
        (b"[" * 100_000, "malformed JSON"),
        (b"1" * 5_000, "malformed JSON"),
        (b"[1, 2]", "expected an object, got list"),
    ], ids=["not-utf8", "deep-nesting", "long-integer", "not-an-object"])
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "inst.jsonl"
        path.write_bytes(json.dumps(GOOD_INSTANCE).encode() + b"\r\n" + line + b"\n")
        with pytest.raises(DataError, match=rf"inst\.jsonl:2: {message}"):
            read_instances(path)

    @pytest.mark.parametrize("aspect", ["", "  \t"])
    def test_instance_with_empty_aspect(self, tmp_path, aspect):
        path = _write_lines(tmp_path / "inst.jsonl", [GOOD_INSTANCE, dict(GOOD_INSTANCE, aspect=aspect)])
        with pytest.raises(DataError, match=r"inst\.jsonl:2: field 'aspect' must be non-empty"):
            read_instances(path)

    @pytest.mark.parametrize("aspect", ["", " ", {"aspect": ""}, {"Aspect": " \n", "VA": "5#5"}])
    def test_dataset_with_empty_aspect(self, tmp_path, aspect):
        sentence = {"id": "a", "text": "t", "aspects": ["x", aspect]}
        path = _write_lines(tmp_path / "data.jsonl", [sentence])
        with pytest.raises(DataError, match=r"data\.jsonl:1: record 'a': aspect 1 must be non-empty"):
            parse_dataset(path)
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"ID": "b", "Text": "t", "Aspect_VA": [aspect]}]))
        with pytest.raises(DataError, match=r"data\.json\[0\]: record 'b': aspect 0 must be non-empty"):
            parse_dataset(path, "task_json")

    def test_empty_sentence_id_names_line(self, tmp_path):
        path = _write_lines(tmp_path / "data.jsonl", [
            {"id": "a", "text": "t", "aspects": ["x"]},
            {"id": "", "text": "t", "aspects": ["x"]},
        ])
        with pytest.raises(DataError, match=r"data\.jsonl:2: sentence id must be non-empty"):
            parse_dataset(path)


# "va" values of prediction lines: numbers Python's float reads, some in odd
# spellings (" 5 ", "5_0", "+5"), and each way a value can be bad: a part that
# is no number, not finite or out of range, a count of '#' other than one
# (a two-'#' value beside a zero-'#' one holds the right number of parts
# between them), and values that are not strings
_good_va_parts = (st.integers(100, 900).map(lambda x: f"{x / 100:.2f}")
                  | st.sampled_from([" 5 ", "5_0", "+5", "1e0"]))
_good_va_values = st.builds("{}#{}".format, _good_va_parts, _good_va_parts)
_va_parts = (_good_va_parts | st.floats(1, 9).map(repr)
             | st.sampled_from(["5.", "\u0665", "nan", "inf", "-inf", "1e999", "0.5", "9.5", "10",
                                "", "x", "5 5", "0x5"]))
_va_values = (st.builds("{}#{}".format, _va_parts, _va_parts)
              | st.sampled_from(["5#5#5", "5", "", "#", "##", "5#5#", "#5#5"])
              | st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
              | st.lists(st.just("5#5"), max_size=1) | st.text(max_size=6))
VA_COLUMNS = st.one_of(
    st.lists(_good_va_values, max_size=8),
    # good values around one value of any kind
    st.builds(lambda head, value, tail: head + [value] + tail,
              st.lists(_good_va_values, max_size=4), _va_values,
              st.lists(_good_va_values, max_size=4)),
    st.lists(_good_va_values | _va_values, max_size=8),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(column=VA_COLUMNS)
@example(column=["5#5#5", "5"])
@example(column=["5#5", "1#1#1", "3", "2#2"])
@example(column=[])
@example(column=["5#5", "nan#5"])
@example(column=["5#-inf", "5#5"])
def test_column_parse_matches_line_parse(tmp_path, column):
    """read_predictions parses the "va" column at once. It accepts exactly the
    files whose every value parse_va_string accepts, with the same numbers,
    and otherwise raises parse_va_string's message for the first bad line."""
    path = _write_lines(tmp_path / "pred.jsonl", [
        dict(GOOD_PREDICTION, id=f"s{i}", va=va) for i, va in enumerate(column)])
    want = []
    for lineno, va in enumerate(column, start=1):
        try:
            pair = parse_va_string(va)
        except DataError as exc:
            with pytest.raises(DataError) as info:
                read_predictions(path)
            assert str(info.value) == f"{path}:{lineno}: {exc}"
            return
        want.append([pair.valence, pair.arousal])
    index, rows = read_predictions(path)
    assert rows.dtype == np.float64 and rows.shape == (len(column), 2)
    assert rows.tolist() == want
    assert index == {(f"s{i}", 0): i for i in range(len(column))}


@pytest.mark.parametrize("later", ['{"id": "s3", "aspect_index": 0}', json.dumps(GOOD_PREDICTION),
                                   '{"id": "s3",'], ids=["missing-field", "duplicate", "malformed"])
def test_prediction_file_names_an_earlier_bad_va_first(tmp_path, later):
    """A bad "V#A" is reported before any error on a later line, as a reader
    that parses line by line reports it."""
    path = tmp_path / "pred.jsonl"
    path.write_text("\n".join([json.dumps(GOOD_PREDICTION),
                               json.dumps(dict(GOOD_PREDICTION, id="s2", va="5#x")), later]) + "\n")
    with pytest.raises(DataError, match=r"pred\.jsonl:2: non-numeric component in VA string '5#x'"):
        read_predictions(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    path = tmp_path / "out.json"
    message = f"{path}: Out of range float values are not JSON compliant"
    with pytest.raises(DataError, match=re.escape(message)):
        write_json(path, {"table": {"m": {"d": value}}})
    assert not path.exists()


# Every key some reader looks up, so generated objects reach past the
# missing-field checks and exercise the type checks behind them.
FIELD_NAMES = ("id", "ID", "text", "Text", "aspects", "Aspect_VA", "Quadruplet", "aspect",
               "Aspect", "va", "VA", "aspect_index", "key", "response")
_json_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
                | st.sampled_from(["5.00#5.00", "1#9", "10#4", "a#b", "nan#5", "5"]))
_json_values = st.recursive(
    _json_leaves,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=3),
                                        children, max_size=5)),
    max_leaves=8,
)
_json_objects = st.dictionaries(st.sampled_from(FIELD_NAMES), _json_values, max_size=6)
_line = (_json_objects | _json_values).map(lambda v: json.dumps(v).encode()) | st.binary(max_size=12)
FILE_CONTENTS = st.one_of(
    st.binary(),
    st.lists(_line, max_size=5).map(b"\n".join),
    st.lists(_json_objects, max_size=4).map(lambda v: json.dumps(v).encode()),
)

READERS = {
    "parse_dataset-simple_jsonl": lambda path: parse_dataset(path, "simple_jsonl"),
    "parse_dataset-task_json": lambda path: parse_dataset(path, "task_json"),
    "read_instances": read_instances,
    "read_predictions": read_predictions,
    "read_gold-simple_jsonl": lambda path: read_gold(path, "simple_jsonl"),
    "read_gold-task_json": lambda path: read_gold(path, "task_json"),
    "read_gold-instances": lambda path: read_gold(path, "instances"),
    "ReplayTransport": ReplayTransport,
    "read_json": read_json,
}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=FILE_CONTENTS)
@example(content=b'{"id": "s\xff"}\n')
@example(content=b'[{"ID": "t1", "Text": "\xc3", "Aspect_VA": ["x"]}]')
def test_readers_raise_only_data_error(tmp_path, reader, content):
    """Whatever bytes a file holds, a reader returns well-typed values or
    raises DataError; no other exception escapes to the command line."""
    path = tmp_path / "input"
    path.write_bytes(content)
    try:
        result = READERS[reader](path)
    except DataError:
        return
    if reader.startswith("parse_dataset") or reader == "read_instances":
        for inst in result:
            assert isinstance(inst.sentence_id, str) and type(inst.aspect_index) is int
            assert isinstance(inst.text, str) and isinstance(inst.aspect, str)
            assert inst.aspect.strip()
            assert inst.gold is None or isinstance(inst.gold, VAPair)
    if reader.startswith("read_gold"):
        keys, rows = result
        assert all(isinstance(rid, str) and type(index) is int for rid, index in keys)
        assert rows.dtype == np.float64 and rows.shape == (len(keys), 2)


def _mostly(good, bad):
    """good, drawn four times in five, else bad; unlike `|`, this weight holds
    however many alternatives bad has."""
    return st.integers(0, 4).flatmap(lambda k: good if k else bad)


def _decode_line_by_line(path) -> list:
    """What read_jsonl gives when every line goes through json.loads: its
    (where, object) pairs, or the message of the DataError it raises."""
    pairs = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    return f"{where}: not UTF-8 text"
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                return f"{where}: malformed JSON ({getattr(exc, 'msg', exc)})"
            if not isinstance(obj, dict):
                return f"{where}: expected an object, got {type(obj).__name__}"
            try:  # a lone surrogate in any key or value has no UTF-8 encoding
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                return f"{where}: a string holds a lone surrogate, which is not Unicode text"
            pairs.append((where, obj))
    return pairs


# one line of a JSON Lines file: an object, written compactly or spaced, or a
# value that is not one, between bits that json.loads skips as whitespace or
# refuses (a BOM, a form feed, trailing data, a second object)
_line_objects = (_json_objects.map(json.dumps)
                 | _json_objects.map(lambda obj: json.dumps(obj, separators=(",", ":"))))
_line_bodies = _line_objects | _json_values.map(json.dumps) | st.sampled_from([
    "", "{", "{}", '{"a": }', "{'a': 1}", '{"a": NaN, "b": -Infinity}', '{"a": 1e999}',
    '{"a": 1}{"b": 2}', '{"a": 1} {"b": 2}', "[1, 2]", "null", '"{}"', "{" * 5_000 + "}" * 5_000,
    '{"a": ' + "[" * 5_000 + "]" * 5_000 + "}", '{"a": ' + "1" * 5_000 + "}", '{"a": "\\ud800"}'])
_line_edges = st.sampled_from(["", " ", "\t", "\ufeff", "\x0c", "\x0b", "\u00a0", "  \t ", " x",
                               ",", " {}"])
_line_ends = st.sampled_from(["\n", "\r\n", "\r", "\x0c\n", " \n", "\t\r\n"])
# lines: mostly one object and its newline, else any body between any edges,
# or a blank line
JSONL_FILES = st.lists(
    _mostly(_line_objects.map(lambda line: line + "\n"),
            st.tuples(_line_edges, _line_bodies, _line_edges, _line_ends).map("".join)
            | st.sampled_from(["\x0c\n", "\n", " \r\n", "\x0c", "\ud800\n"])),
    max_size=5,
).map("".join)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=JSONL_FILES, last_newline=st.booleans())
@example(text='{"a": 1}\n\x0c\n{"b": [1, {"c": null}]}', last_newline=False)
@example(text='\ufeff{"a": 1}\n', last_newline=True)
@example(text='{"a": 1}\r\n {"b": 2}\n{"c": 3} x\n', last_newline=True)
@example(text='{"a": 1}\n{"b": ' + "[" * 5_000 + "]" * 5_000 + "}\n", last_newline=True)
@example(text='{"a": "\\ud83d\\ude00", "\\\\udc00": 1}\n{"b": ["\\udc00x"]}\n', last_newline=True)
@example(text='{"a": "\\ud800", "b": "\\ud83d\\ude00"}\r\n', last_newline=False)
def test_read_jsonl_matches_json_loads_per_line(tmp_path, text, last_newline):
    """read_jsonl decodes a line that is one object and its newline with one
    scanner call. It accepts exactly the files that json.loads, line by line,
    accepts and whose strings are all Unicode text, with equal objects, and
    otherwise names the same line with the same message."""
    path = tmp_path / "lines.jsonl"
    path.write_text(text if last_newline else text.rstrip("\n"), encoding="utf-8",
                    errors="surrogatepass", newline="")
    want = _decode_line_by_line(path)
    try:
        got = list(read_jsonl(path))
    except DataError as exc:
        got = str(exc)
    assert repr(got) == repr(want)  # repr, so that NaN equals NaN and 1 differs from 1.0


def _gold_by_instances(path, fmt):
    """The keys and VA rows of the labeled instances parse_dataset (or
    read_instances) builds, or the message of the DataError it raises."""
    try:
        instances = read_instances(path) if fmt == "instances" else parse_dataset(path, fmt)
    except DataError as exc:
        return str(exc)
    labeled = [inst for inst in instances if inst.gold is not None]
    return [inst.key for inst in labeled], [[i.gold.valence, i.gold.arousal] for i in labeled]


def _with_faults(records, faults):
    """records with each (position, (op, key, value)) fault applied: "set"
    gives the record's key a value, "drop" removes the key, "whole" replaces
    the record by the value."""
    records = list(records)
    for position, (op, key, value) in faults:
        i = position % max(len(records), 1)
        if op == "whole" and records:
            records[i] = value
        elif records and isinstance(records[i], dict):
            records[i] = dict(records[i], **{key: value}) if op == "set" else {
                k: v for k, v in records[i].items() if k != key}
    return records


# gold files that are well formed, or hold a fault or two: a field set to a
# bad or repeated value, a field dropped, a record that is another JSON value,
# and now and then a bad "V#A" or aspect entry
_gold_va = _mostly(_good_va_values | st.none(), _va_values)
_dataset_entries = _mostly(
    st.builds(dict, aspect=st.sampled_from(["food", "staff"]), va=_gold_va)
    | st.builds(dict, Aspect=st.sampled_from(["food", "battery"]), VA=_gold_va)
    | st.builds(dict, aspect=st.just("x"), VA=st.none(), va=_gold_va) | st.just("NULL"),
    st.builds(dict, aspect=st.sampled_from([" ", 5])) | st.sampled_from([" ", 5, None, {}]))
_sentences = st.lists(
    st.lists(_dataset_entries, min_size=1, max_size=3), max_size=5,
).map(lambda lists: [{"id": f"s{i}", "text": "t", "aspects": a} for i, a in enumerate(lists)])
_sentence_faults = st.tuples(
    st.just("set"), st.sampled_from(["id", "text", "aspects"]),
    st.sampled_from(["", "s0", None, [], 5])) | st.tuples(
    st.just("drop"), st.sampled_from(["id", "text", "aspects"]), st.none()) | st.tuples(
    st.just("whole"), st.none(), _json_values)
_instance_lines = st.lists(st.builds(dict, text=st.just("t"), aspect=st.just("food"), va=_gold_va),
                           max_size=6).map(lambda lines: [
    dict(line, id=f"s{i // 2}", aspect_index=i % 2) for i, line in enumerate(lines)])
_instance_faults = st.tuples(
    st.just("set"), st.sampled_from(["id", "aspect_index", "text", "aspect", "va"]),
    st.sampled_from(["s0", 0, 1.5, True, " ", 3, "", None, "5#x"])) | st.tuples(
    st.just("drop"), st.sampled_from(["id", "aspect_index", "text", "aspect", "va"]),
    st.none()) | st.tuples(st.just("whole"), st.none(), _json_values)
_faults = lambda fault: st.lists(st.tuples(st.integers(0, 5), fault), max_size=2)
GOLD_FILES = st.one_of(
    st.tuples(st.just("simple_jsonl"), st.builds(_with_faults, _sentences, _faults(_sentence_faults))),
    st.tuples(st.just("task_json"), st.builds(_with_faults, _sentences, _faults(_sentence_faults))),
    st.tuples(st.just("instances"),
              st.builds(_with_faults, _instance_lines, _faults(_instance_faults))),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gold=GOLD_FILES)
@example(gold=("simple_jsonl", [{"id": "a", "text": "t", "aspects": [
    {"aspect": "x", "va": "5#5"}, "y", {"Aspect": "z", "VA": None, "va": "2#3"}]}]))
@example(gold=("instances", [dict(GOOD_INSTANCE, id="a"), dict(GOOD_INSTANCE, id="b", va=None)]))
@example(gold=("task_json", [{"id": "a", "text": "t", "aspects": [{"aspect": "x", "va": "5#5"}]},
                            {"id": "a", "text": "t", "aspects": [{"aspect": "x", "va": "5#x"}]}]))
@example(gold=("simple_jsonl", [{"id": "a", "text": "t", "aspects": ["x"]}] * 2))
@example(gold=("instances", [GOOD_INSTANCE, dict(GOOD_INSTANCE, va=None)]))
def test_gold_column_matches_instances(tmp_path, gold):
    """read_gold gives the keys and VA rows of the labeled instances that
    parse_dataset or read_instances builds from a valid gold file, and the
    same first error from an invalid one."""
    fmt, records = gold
    path = tmp_path / "gold"
    path.write_text(json.dumps(records) if fmt == "task_json"
                    else "".join(json.dumps(r) + "\n" for r in records))
    want = _gold_by_instances(path, fmt)
    try:
        keys, rows = read_gold(path, fmt)
    except DataError as exc:
        assert str(exc) == want
    else:
        assert rows.dtype == np.float64 and (keys, rows.tolist()) == want


@pytest.mark.parametrize("fmt", ["simple_jsonl", "task_json", "instances"])
def test_gold_names_an_earlier_bad_va_first(tmp_path, fmt):
    """A bad "V#A" in the second record is named before a missing field in the
    fifth, as a reader that checks each value as it goes names it."""
    if fmt == "instances":
        records = [dict(GOOD_INSTANCE, id=f"s{i}") for i in range(5)]
        records[4].pop("aspect_index")
    else:
        records = [{"id": f"s{i}", "text": "t", "aspects": [{"aspect": "x", "va": "5#5"}]}
                   for i in range(5)]
        records[4].pop("text")
    records[1] = dict(records[1], va="5#x") if fmt == "instances" else dict(
        records[1], aspects=[{"aspect": "x", "va": "5#x"}])
    path = tmp_path / "gold"
    path.write_text(json.dumps(records) if fmt == "task_json"
                    else "".join(json.dumps(r) + "\n" for r in records))
    where = {"simple_jsonl": f"{path}:2: record 's1'", "task_json": f"{path}[1]: record 's1'",
             "instances": f"{path}:2"}[fmt]
    with pytest.raises(DataError) as info:
        read_gold(path, fmt)
    assert str(info.value) == f"{where}: non-numeric component in VA string '5#x'"


# Values yaml.safe_load or json.loads can return. Integers stay small because a
# large dim or vocab_size is a valid setting that allocates that much memory.
_small_ints = st.integers(-3, 40)
_setting_values = st.recursive(
    st.none() | st.booleans() | _small_ints | st.floats() | st.text(max_size=6)
    | st.sampled_from(["tiny", "2e-5"]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6,
)
_typed_values = {bool: st.booleans(), int: _small_ints, float: st.floats() | _small_ints,
                 str: st.text(max_size=6),
                 dict: st.dictionaries(st.text(max_size=4), _setting_values, max_size=3)}


def _sections(cls, **extra):
    """Mappings a config file or manifest may hold for cls: some keys of cls's
    settings (plus `extra`) with values of their types, or odd keys and values."""
    params = inspect.signature(cls, eval_str=True).parameters
    typed = {name: _typed_values[p.annotation] for name, p in params.items()}
    odd_keys = st.sampled_from(sorted(params)) | st.text(max_size=4) | st.integers() | st.none()
    return (st.fixed_dictionaries({}, optional={**typed, **extra})
            | st.dictionaries(odd_keys, _setting_values, max_size=4))


# the tiny encoder only: building an "hf" one would load a pretrained model
ENCODER_SECTIONS = _sections(
    TinyEncoder, type=st.just("tiny") | st.text(max_size=3).filter(lambda kind: kind != "hf"))
GOOD_MANIFEST = {"format_version": 1,
                 "encoder": {"type": "tiny", "dim": 8, "vocab_size": 64, "max_len": 256, "seed": 0},
                 "hidden_dim": 8, "max_len": 256, "input_dropout_rate": 0.1,
                 "head_dropout_rate": 0.1, "head_internal_dropout": True, "seed": 1}
# whole values, or a good manifest with keys dropped and keys (the encoder too) replaced
MANIFESTS = _setting_values | st.builds(
    lambda drop, replace: {k: v for k, v in {**GOOD_MANIFEST, **replace}.items() if k not in drop},
    st.sets(st.sampled_from(sorted(GOOD_MANIFEST)), max_size=2),
    _sections(CheckpointManifest, format_version=st.just(1) | _small_ints,
              encoder=ENCODER_SECTIONS),
)

SETTINGS = {
    "train": (_sections(TrainConfig) | _setting_values, TrainConfig.from_mapping),
    "llm": (_sections(LlmRunConfig) | _setting_values,
            lambda obj: from_mapping(LlmRunConfig, obj, "llm")),
    # the top level of a config or manifest has already checked this is a mapping
    "encoder": (ENCODER_SECTIONS, make_encoder),
}


@pytest.mark.parametrize("section", sorted(SETTINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_settings_raise_only_config_error(section, data):
    """Whatever a config section holds, reading it returns its object or raises
    ConfigError; no other exception escapes to the command line."""
    values, read = SETTINGS[section]
    obj = data.draw(values)
    try:
        read(obj)
    except ConfigError:
        pass


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest=MANIFESTS)
def test_checkpoint_manifest_raises_only_data_error(tmp_path, manifest):
    """Whatever a checkpoint's manifest.json holds, load_checkpoint returns a
    model or raises DataError naming the manifest, or params.npz when the
    parameters do not match the model."""
    checkpoint = tmp_path / "ckpt"
    if not checkpoint.exists():
        save_checkpoint(DimASRModel(TinyEncoder(dim=8, vocab_size=64), seed=1), checkpoint)
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    try:
        load_checkpoint(checkpoint)
    except DataError as exc:
        assert str(exc).startswith((f"{checkpoint / 'manifest.json'}: ",
                                    f"{checkpoint / 'params.npz'}: "))


def test_good_manifest_is_what_save_checkpoint_writes(tmp_path):
    save_checkpoint(DimASRModel(TinyEncoder(dim=8, vocab_size=64), seed=1), tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text()) == GOOD_MANIFEST
    assert list(GOOD_MANIFEST) == [f.name for f in dataclasses.fields(CheckpointManifest)]
