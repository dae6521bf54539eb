import copy
import json

import pytest
import requests
from hypothesis import HealthCheck, given, settings, strategies as st

from dimasr import llm
from dimasr.data import AspectInstance, DataError, VAPair, read_instances
from dimasr.llm import (
    DEFAULT_EXEMPLARS,
    DEFAULT_SYSTEM_PROMPT,
    HttpChatTransport,
    LlmError,
    LlmParseError,
    LlmRunConfig,
    ReplayTransport,
    build_prefix,
    build_prompt,
    instance_key,
    parse_llm_output,
    run_baseline,
    sample_exemplars,
)
from .conftest import FIXTURES, make_instances


QUERY = AspectInstance("q", 0, "great battery", "battery", None)


class TestBuildPrompt:
    def test_default_exemplars(self):
        messages = build_prompt(QUERY, build_prefix())
        assert messages[0]["role"] == "system"
        assert messages[0]["content"] == DEFAULT_SYSTEM_PROMPT
        # second exemplar's answer turn
        assert messages[4]["content"] == "1.33#8.67"
        assert messages[-1]["role"] == "user"
        assert "battery" in messages[-1]["content"]
        assert len(messages) == 1 + 2 * 6 + 1

    def test_zero_shot(self):
        messages = build_prompt(QUERY, build_prefix(exemplars=()))
        assert len(messages) == 2

    def test_null_aspect_rendered_verbatim(self):
        messages = build_prompt(QUERY, build_prefix())
        assert any('Aspect: "NULL"' in m["content"] for m in messages)

    def test_exemplar_missing_gold(self):
        inst = AspectInstance("e", 0, "text", "aspect", None)
        with pytest.raises(LlmError, match="gold"):
            build_prefix(exemplars=[inst])

    def test_injective_on_query(self):
        prefix = build_prefix()
        a = build_prompt(AspectInstance("q", 0, "same text", "food", None), prefix)
        b = build_prompt(AspectInstance("q", 0, "same text", "staff", None), prefix)
        assert a != b


class TestSampleExemplars:
    def test_whole_pool(self):
        pool = make_instances(6)
        assert sorted(i.sentence_id for i in sample_exemplars(pool, 6, seed=0)) == sorted(
            i.sentence_id for i in pool)

    def test_deterministic(self):
        pool = make_instances(100)
        a = sample_exemplars(pool, 6, seed=9)
        assert a == sample_exemplars(pool, 6, seed=9)

    def test_different_seeds_differ(self):
        pool = make_instances(100)
        a = {i.sentence_id for i in sample_exemplars(pool, 6, seed=1)}
        b = {i.sentence_id for i in sample_exemplars(pool, 6, seed=2)}
        assert a != b

    def test_k_too_large(self):
        with pytest.raises(LlmError):
            sample_exemplars(make_instances(3), 6, seed=0)


class TestParseLlmOutput:
    def test_clean(self):
        assert parse_llm_output("7.50#6.80") == VAPair(7.50, 6.80)

    def test_clips_both_bounds(self):
        assert parse_llm_output("The answer is 9.80#0.20.") == VAPair(9.0, 1.0)

    def test_surrounding_prose(self):
        assert parse_llm_output("Sure! I'd say 4.25 # 6.00 overall") == VAPair(4.25, 6.00)

    def test_no_pattern(self):
        with pytest.raises(LlmParseError):
            parse_llm_output("I cannot determine this.")

    def test_never_out_of_range(self):
        pair = parse_llm_output("-3#100")
        assert pair == VAPair(1.0, 9.0)


class TestRunBaseline:
    def test_replay_deterministic_with_fallback(self, tmp_path):
        from dimasr.data import read_instances

        instances = read_instances(FIXTURES / "llm_instances.jsonl")
        config = LlmRunConfig(max_retries=1)
        outputs = []
        for run in range(2):
            transport = ReplayTransport(FIXTURES / "replay_transcript.jsonl")
            pairs, log = run_baseline(instances, config, transport,
                                      transcript_out=tmp_path / f"t{run}.jsonl")
            outputs.append(pairs)
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == VAPair(7.10, 6.30)
        assert outputs[0][1] == VAPair(1.50, 8.20)  # parsed out of prose
        assert outputs[0][2] == VAPair(5.0, 5.0)  # garbage -> midpoint fallback
        assert [r["status"] for r in log] == ["ok", "ok", "fallback"]
        assert (tmp_path / "t0.jsonl").read_bytes() == (tmp_path / "t1.jsonl").read_bytes()

    def test_unknown_key_falls_back_when_others_succeed(self):
        from dimasr.data import read_instances

        known = read_instances(FIXTURES / "llm_instances.jsonl")[:1]
        unknown = make_instances(1, prefix="zz")
        transport = ReplayTransport(FIXTURES / "replay_transcript.jsonl")
        pairs, log = run_baseline(known + unknown, LlmRunConfig(max_retries=0), transport)
        assert log[0]["status"] == "ok"
        assert log[1]["status"] == "fallback"
        assert pairs[1] == VAPair(5.0, 5.0)

    def test_all_failures_raise(self):
        instances = make_instances(2)
        transport = ReplayTransport(FIXTURES / "replay_transcript.jsonl")
        with pytest.raises(LlmError, match="failed"):
            run_baseline(instances, LlmRunConfig(max_retries=0), transport)

    def test_transcript_records_are_complete(self, tmp_path):
        from dimasr.data import read_instances

        instances = read_instances(FIXTURES / "llm_instances.jsonl")
        transport = ReplayTransport(FIXTURES / "replay_transcript.jsonl")
        out = tmp_path / "transcript.jsonl"
        run_baseline(instances, LlmRunConfig(), transport, transcript_out=out)
        records = [json.loads(line) for line in out.read_text().strip().split("\n")]
        assert len(records) == 3
        for rec in records:
            assert set(rec) == {"key", "messages", "response", "parsed", "status"}


# text that JSON must escape or keep as is: quotes, backslashes, control
# characters, line separators and characters outside the Basic Multilingual Plane
TRICKY_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\U0001f600\U0010ffff'),
                                st.characters(exclude_categories=("Cs",))), max_size=12)
AS_EXEMPLARS = st.builds(
    AspectInstance, st.just("e"), st.integers(0, 3), TRICKY_TEXT, TRICKY_TEXT,
    st.builds(VAPair, st.floats(1.0, 9.0), st.floats(1.0, 9.0)))


class RecordingTransport:
    """Answers a key's i-th request with the i-th of its answers (the last once
    they run out, as replay does): a response, or None for a failed request.
    Keeps a copy of the messages of every request, by key."""

    def __init__(self, answers):
        self.answers = answers
        self.sent = {}

    def complete(self, key, messages, config):
        calls = self.sent.setdefault(key, [])
        calls.append(copy.deepcopy(messages))
        answer = self.answers[key][min(len(calls), len(self.answers[key])) - 1]
        if answer is None:
            raise LlmError("connection reset")
        return answer


def check_transcript(path, log, sent, exemplars):
    """The transcript at `path` holds the run's log, each record as the standard
    JSON encoding of it, and prompt.json beside it holds the run's prefix:
    prompt.json + a record's messages is what each request for its key sent."""
    assert path.read_bytes() == "".join(
        json.dumps(r, ensure_ascii=False) + "\n" for r in log).encode("utf-8")
    prompt = json.loads((path.parent / "prompt.json").read_text(encoding="utf-8"))
    assert prompt == build_prefix(exemplars)
    assert sorted(sent) == sorted(r["key"] for r in log)
    for record in log:
        assert set(record) == {"key", "messages", "response", "parsed", "status"}
        assert [m["role"] for m in record["messages"]] == ["user"]  # the query turn only
        assert sent[record["key"]] and all(messages == prompt + record["messages"]
                                           for messages in sent[record["key"]])


# a key's answers with max_retries=1, each with the requests and the status it
# gives: a parseable response at once, one after a failed request or after an
# unparseable response, and a fallback after two of either
ANSWERS = st.sampled_from([(["7.00#6.00"], 1, "ok"), ([None, "3.00#4.00"], 2, "ok"),
                           (["no idea", "2#8"], 2, "ok"), (["no idea"], 2, "fallback"),
                           ([None], 2, "fallback")])


class TestTranscript:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(exemplars=st.one_of(st.just(DEFAULT_EXEMPLARS), st.lists(AS_EXEMPLARS, max_size=4)),
           queries=st.lists(st.tuples(TRICKY_TEXT, TRICKY_TEXT, ANSWERS), max_size=4))
    def test_prompt_and_query_turn_are_what_was_sent(self, tmp_path, exemplars, queries):
        # the default exemplars and sampled ones (--exemplar-pool) both; the
        # first instance succeeds, so the run never fails as a whole
        instances = [AspectInstance("s", 0, "fine", "x")] + [
            AspectInstance(f"{i}:{text}", 0, text, aspect)
            for i, (text, aspect, _) in enumerate(queries)]
        answers = [(["5.00#5.00"], 1, "ok")] + [answer for _, _, answer in queries]
        transport = RecordingTransport({instance_key(inst): responses
                                        for inst, (responses, _, _) in zip(instances, answers)})
        out = tmp_path / "transcript.jsonl"
        _, log = run_baseline(instances, LlmRunConfig(max_retries=1), transport,
                              exemplars=exemplars, transcript_out=out)
        check_transcript(out, log, transport.sent, exemplars)
        assert [(len(transport.sent[r["key"]]), r["status"]) for r in log] == [
            (requests, status) for _, requests, status in answers]

    @pytest.mark.parametrize("sampled", [False, True], ids=["default", "exemplar-pool"])
    def test_run_writes_full_records_byte_for_byte(self, tmp_path, sampled):
        instances = read_instances(FIXTURES / "llm_instances.jsonl")
        exemplars = DEFAULT_EXEMPLARS
        if sampled:
            exemplars = sample_exemplars(make_instances(12, seed=3), 6, seed=5)
        transport = RecordingTransport(
            ReplayTransport(FIXTURES / "replay_transcript.jsonl").responses)
        out = tmp_path / "transcript.jsonl"
        _, log = run_baseline(instances, LlmRunConfig(max_retries=1), transport,
                              exemplars=exemplars, transcript_out=out)
        check_transcript(out, log, transport.sent, exemplars)
        assert [r["key"] for r in log] == ["q1::0", "q2::0", "q3::0"]
        assert [len(transport.sent[r["key"]]) for r in log] == [1, 1, 2]  # q3 falls back

    def test_prefix_rendered_once_per_run(self, monkeypatch):
        counts = {"build_prefix": 0, "render_query": 0}

        def counting(name):
            real = getattr(llm, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(llm, name, wrapper)

        counting("build_prefix")
        counting("render_query")
        instances = read_instances(FIXTURES / "llm_instances.jsonl")
        for run in (1, 2):
            run_baseline(instances, LlmRunConfig(max_retries=1),
                         ReplayTransport(FIXTURES / "replay_transcript.jsonl"))
            per_run = len(DEFAULT_EXEMPLARS) + len(instances)
            assert counts == {"build_prefix": run, "render_query": run * per_run}


class TestReplayMalformed:
    GOOD = '{"key": "s1::0", "response": "7.10#6.30"}\n'

    @pytest.mark.parametrize("line,message", [
        ("not json", "malformed JSON"),
        ("[1, 2]", "expected an object, got list"),
        ('{"response": "5#5"}', "'key' must be a string"),
        ('{"key": "s1::1"}', "'response' must be a string"),
        ('{"key": "s1::1", "response": null}', "'response' must be a string"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "t.jsonl"
        path.write_text(self.GOOD + "\n" + line + "\n")
        with pytest.raises(DataError) as info:
            ReplayTransport(path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert message in str(info.value)


class FakePost:
    """Stands in for requests.post: call i answers with outcomes[i], either an
    exception to raise or (status code, body bytes)."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, url, **kwargs):
        outcome = self.outcomes[self.calls]
        self.calls += 1
        if isinstance(outcome, Exception):
            raise outcome
        status, body = outcome
        resp = requests.Response()
        resp.status_code, resp._content, resp.url = status, body, url
        return resp


def answer(text):
    return 200, json.dumps({"choices": [{"message": {"content": text}}]}).encode()


class TestHttpTransportFailures:
    @pytest.fixture
    def transport(self, monkeypatch):
        monkeypatch.setenv("DIMASR_LLM_API_KEY", "k")
        return HttpChatTransport(LlmRunConfig(base_url="https://example.invalid/v1", model="m"))

    def test_connection_error_is_retried(self, transport, monkeypatch):
        post = FakePost([requests.ConnectionError("reset"), answer("7.00#6.00"),
                         answer("3.00#4.00")])
        monkeypatch.setattr(requests, "post", post)
        pairs, log = run_baseline(make_instances(2), LlmRunConfig(max_retries=1), transport)
        assert post.calls == 3
        assert pairs == [VAPair(7.0, 6.0), VAPair(3.0, 4.0)]
        assert [r["status"] for r in log] == ["ok", "ok"]

    def test_exhausted_retries_fall_back(self, transport, monkeypatch):
        post = FakePost([requests.ConnectionError("reset"), requests.Timeout("slow"),
                         answer("2.00#8.00")])
        monkeypatch.setattr(requests, "post", post)
        pairs, log = run_baseline(make_instances(2), LlmRunConfig(max_retries=1), transport)
        assert post.calls == 3
        assert pairs == [VAPair(5.0, 5.0), VAPair(2.0, 8.0)]
        assert [r["status"] for r in log] == ["fallback", "ok"]
        assert log[0]["response"].startswith("<transport error: request for instance")

    @pytest.mark.parametrize("outcome", [
        (500, b"{}"),
        (200, b"<html>not json</html>"),
        (200, b"{}"),
        (200, b'{"choices": []}'),
        (200, b"[]"),
        (200, b'{"choices": [{"message": {"content": null}}]}'),
    ])
    def test_bad_response_is_llm_error(self, transport, monkeypatch, outcome):
        monkeypatch.setattr(requests, "post", FakePost([outcome]))
        with pytest.raises(LlmError, match="instance k1"):
            transport.complete("k1", [], LlmRunConfig(base_url="https://example.invalid/v1"))


def test_http_transport_requires_credential(monkeypatch):
    monkeypatch.delenv("DIMASR_LLM_API_KEY", raising=False)
    with pytest.raises(LlmError, match="DIMASR_LLM_API_KEY"):
        HttpChatTransport(LlmRunConfig(base_url="https://example.invalid/v1", model="m"))


def test_negative_temperature_rejected():
    with pytest.raises(LlmError):
        LlmRunConfig(temperature=-0.1)
