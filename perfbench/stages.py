"""One benchmark round: the dimasr pipeline stages plus their output checks.

A round runs, in one process and in this order:

    prepare -> train -> predict -> evaluate (model) -> llm-baseline --replay
            -> evaluate (llm) -> compare

Every stage except train is the real ``dimasr`` command, invoked in-process.
Train drives the public API (``read_instances`` -> ``DimASRModel`` -> ``fit``
-> ``save_checkpoint``), because ``dimasr train`` cannot build the frozen
stand-in encoder and both train workloads must be driven the same way.
Predict uses a fixed seeded checkpoint built at set-up, so its cost does not
depend on training.

Each stage invocation counts as one attempted operation; it fails when it
exits non-zero, raises, or its outputs fail a check. The train invocation
processes epochs x fit instances; every other invocation processes the
corpus's train instances (prepare) or its test instances.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import click

from dimasr import cli, data, model, trainer

STAGES = ("prepare", "train", "predict", "evaluate", "llm-baseline", "compare")
CALLS_PER_PASS = {"evaluate": 2}  # the model's and the LLM's predictions


class StageFailed(RuntimeError):
    pass


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


@dataclass
class RoundResult:
    times: dict  # stage -> wall seconds of each invocation
    per_call: dict  # stage -> instances one invocation processes
    epochs: int
    best_val_rmse_va: float
    report_rmse: tuple  # (model, llm) joint RMSE from the evaluate reports
    transcript_bytes: int


def stage_seconds(rounds, stage) -> float:
    """Median wall time of one invocation of `stage` over every round."""
    return statistics.median(t for r in rounds for t in r.times[stage])


def stage_rate(rounds, stage) -> float:
    return rounds[0].per_call[stage] / stage_seconds(rounds, stage)


def pass_seconds(rounds) -> float:
    """Wall time of one pass through every stage, from the median invocations."""
    return sum(stage_seconds(rounds, s) * CALLS_PER_PASS.get(s, 1) for s in STAGES)


def pass_rate(rounds) -> float:
    """Instances one pass processes, summed over its stages, per second of the pass."""
    done = sum(rounds[0].per_call[s] * CALLS_PER_PASS.get(s, 1) for s in STAGES)
    return done / pass_seconds(rounds)


def _read_jsonl(path):
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def invoke(*args) -> str:
    """Run one dimasr command in-process; return its stdout or raise StageFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=[str(a) for a in args], prog_name="dimasr", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
    if code:
        raise StageFailed(f"dimasr {args[0]} exited {code}: {err.getvalue().strip()[:300]}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# output checks

def _require(cond, message):
    if not cond:
        raise StageFailed(message)


def check_split(prepared: Path, expected_instances: int):
    fit = _read_jsonl(prepared / "train.jsonl")
    val = _read_jsonl(prepared / "eval.jsonl")
    shared = {r["id"] for r in fit} & {r["id"] for r in val}
    _require(not shared, f"split is not sentence-disjoint: {sorted(shared)[:3]}")
    _require(len(fit) + len(val) == expected_instances,
             f"split has {len(fit) + len(val)} instances, corpus has {expected_instances}")


def check_fit(fitted, val_set, history):
    best = history.records[history.best_epoch - 1].val_rmse_va
    again = trainer.evaluate_rmse(fitted, val_set)
    _require(again == best, f"restored model scores {again!r} on val, history says {best!r}")


def check_predictions(path: Path, keys):
    rows = _read_jsonl(path)
    got = [(r["id"], r["aspect_index"]) for r in rows]
    _require(len(got) == len(keys) and set(got) == set(keys),
             f"{path}: {len(got)} predictions for {len(keys)} instances")
    for r in rows:
        v, a = (float(x) for x in r["va"].split("#"))
        _require(1.0 <= v <= 9.0 and 1.0 <= a <= 9.0, f"{path}: prediction {r['va']} outside [1, 9]")


def check_report(path: Path, n: int) -> float:
    rep = json.loads(path.read_text(encoding="utf-8"))
    _require(abs(rep["rmse_va"] ** 2 - (rep["rmse_v"] ** 2 + rep["rmse_a"] ** 2)) <= 1e-9,
             f"{path}: rmse_va^2 != rmse_v^2 + rmse_a^2")
    total = sum(c["count"] for row in rep["heatmap"]["cells"] for c in row)
    _require(rep["n"] == n and total == n, f"{path}: n={rep['n']}, heatmap total {total}, expected {n}")
    return rep["rmse_va"]


def check_llm(out_dir: Path, corpus, fallback_va="5.00#5.00"):
    log = _read_jsonl(out_dir / "transcript.jsonl")
    fallbacks = {r["key"] for r in log if r["status"] != "ok"}
    _require(fallbacks == corpus.always_bad_keys,
             f"{len(fallbacks)} fallbacks, transcript implies {corpus.expected_fallbacks}")
    for r in log:
        if r["key"] in corpus.first_bad_keys:
            # ok with a parseable final response means exactly one retry
            _require(r["status"] == "ok" and "#" in r["response"],
                     f"key {r['key']} was not retried to its second response")
        if r["key"] in corpus.always_bad_keys:
            _require(r["parsed"] == fallback_va, f"key {r['key']} did not fall back to the midpoint")


def check_compare(cmp_dir: Path, methods):
    table = json.loads((cmp_dir / "comparison.json").read_text(encoding="utf-8"))["table"]
    _require(set(table) == set(methods), f"compare lists {sorted(table)}, expected {sorted(methods)}")


# ---------------------------------------------------------------------------
# the round

SLICE_S = 0.15  # untraced, a short stage repeats until its samples in a slice add up to this
SHORT_SHARE = 1.5  # untraced, short stages run for at least this share of the train time


def run_round(setup, rdir: Path, ops: Ops, tracer=None, run_id=0) -> RoundResult:
    """Run every stage once in `rdir`; raise StageFailed on the first failure.

    Only the stage itself is timed (and traced); its output check runs after.
    In an untraced round each invocation except train and compare repeats
    until its samples add up to SLICE_S, so a stage of a few milliseconds is
    not timed from one sample; then the short stages (all but train and
    compare) run again, in pipeline order and in slices, until their time in
    the round reaches SHORT_SHARE of the train time. Every stage is then
    sampled in every round, spread over the whole run, so that a slow spell
    of the host weighs on all stages alike. Traced rounds run each invocation
    once, so that per-layer counts are per pass.
    """
    corpus = setup.corpus
    n_test = len(corpus.test_instance_keys)
    times = {s: [] for s in STAGES}
    per_call = {}
    short = []  # (name, n, action, check) of the stages that repeat

    def attempt(name, n, action, check=lambda result: None, repeat=True):
        spent = 0.0
        while True:
            ops.attempted += 1
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    result = action()
                    dt = time.perf_counter() - t0
                else:
                    with tracer.installed(run_id):
                        t0 = time.perf_counter()
                        with tracer.span("stage.train" if name == "train" else f"cli.{name}"):
                            result = action()
                        dt = time.perf_counter() - t0
                check(result)
            except StageFailed:
                ops.failed += 1
                raise
            except Exception as exc:
                ops.failed += 1
                raise StageFailed(f"{name}: {traceback.format_exc(limit=-3)}") from exc
            spent += dt
            times[name].append(dt)
            per_call[name] = n(result) if callable(n) else n
            if not repeat or tracer is not None or spent >= SLICE_S:
                return result

    def short_stage(*stage):
        short.append(stage)
        return attempt(*stage)

    prepared = rdir / "prepared"
    short_stage("prepare", corpus.train_instances,
                lambda: invoke("prepare", "--train-file", corpus.train_json, "--format", "task_json",
                               "--mode", "dev", "--ratio", setup.split_ratio, "--seed", 42,
                               "--out", prepared),
                lambda _: check_split(prepared, corpus.train_instances))

    fresh = copy.deepcopy(setup.model)

    def train():
        fit_set = data.read_instances(prepared / "train.jsonl")
        val_set = data.read_instances(prepared / "eval.jsonl")
        fitted, history = trainer.fit(fresh, fit_set, val_set, setup.train_config)
        model.save_checkpoint(fitted, rdir / "checkpoint")
        return fit_set, val_set, fitted, history

    fit_set, val_set, fitted, history = attempt(
        "train", lambda r: len(r[3].records) * len(r[0]), train,
        lambda r: check_fit(r[2], r[1], r[3]), repeat=False)

    preds = rdir / "pred" / "predictions.jsonl"
    short_stage("predict", n_test,
                lambda: invoke("predict", "--checkpoint", setup.predict_checkpoint,
                               "--instances", corpus.test_instances, "--out", preds.parent),
                lambda _: check_predictions(preds, corpus.test_instance_keys))

    rmse = {}

    def evaluate(method, pred_path, out):
        short_stage("evaluate", n_test,
                    lambda: invoke("evaluate", "--gold", corpus.test_jsonl, "--pred", pred_path,
                                   "--method", method, "--dataset", "synthetic", "--out", out),
                    lambda _: rmse.__setitem__(method, check_report(out / "report.json", n_test)))

    evaluate("finetune", preds, rdir / "eval")

    llm_out = rdir / "llm"

    def check_llm_stage(_):
        check_llm(llm_out, corpus)
        check_predictions(llm_out / "predictions.jsonl", corpus.test_instance_keys)

    short_stage("llm-baseline", n_test,
                lambda: invoke("llm-baseline", "--config", corpus.llm_config,
                               "--instances", corpus.test_instances, "--replay", corpus.transcript,
                               "--out", llm_out),
                check_llm_stage)

    evaluate("llm", llm_out / "predictions.jsonl", rdir / "llm_eval")

    attempt("compare", 0,
            lambda: invoke("compare", rdir / "eval" / "report.json",
                           rdir / "llm_eval" / "report.json", "--out", rdir / "cmp"),
            lambda _: check_compare(rdir / "cmp", ("finetune", "llm")), repeat=False)

    if tracer is None:
        budget = SHORT_SHARE * times["train"][0]
        while sum(sum(times[s]) for s in STAGES if s not in ("train", "compare")) < budget:
            for stage in short:
                attempt(*stage)

    return RoundResult(
        times=times,
        per_call=per_call,
        epochs=len(history.records),
        best_val_rmse_va=history.records[history.best_epoch - 1].val_rmse_va,
        report_rmse=(rmse["finetune"], rmse["llm"]),
        transcript_bytes=(llm_out / "transcript.jsonl").stat().st_size,
    )
