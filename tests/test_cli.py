import ast
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import sys
import tempfile
import types
import urllib.request
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dimasr import data as data_mod
from dimasr import llm as llm_mod
from dimasr.cli import main
from dimasr.data import read_instances, write_instances, write_predictions
from dimasr.model import (DimASRModel, HFEncoder, TinyEncoder, build_input, load_checkpoint,
                          save_checkpoint)
from dimasr.trainer import EpochRecord, TrainConfig, TrainerError, evaluate_rmse, fit
from .conftest import FIXTURES, make_instances


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


def write_train_config(path, fit, val, **train_overrides):
    cfg = {
        "encoder": {"type": "tiny", "dim": 32, "seed": 0},
        "data": {"fit": str(fit), "val": str(val)},
        "train": dict({"learning_rate": 0.01, "dropout": 0.0, "max_epochs": 3,
                       "patience": 3, "seed": 42}, **train_overrides),
    }
    Path(path).write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture
def prepared(runner, tmp_path):
    out = tmp_path / "prepared"
    run_ok(runner, ["prepare", "--train-file", str(FIXTURES / "tiny_dataset.jsonl"),
                    "--mode", "dev", "--seed", "42", "--out", str(out)])
    return out


class TestPrepare:
    def test_dev_split_sizes(self, runner, prepared):
        train = (prepared / "train.jsonl").read_text().strip().split("\n")
        evals = (prepared / "eval.jsonl").read_text().strip().split("\n")
        train_ids = {json.loads(l)["id"] for l in train}
        eval_ids = {json.loads(l)["id"] for l in evals}
        assert len(train_ids) == 8 and len(eval_ids) == 2
        assert not train_ids & eval_ids
        assert (prepared / "manifest.json").exists()

    def test_submission_mode(self, runner, tmp_path):
        out = tmp_path / "sub"
        run_ok(runner, ["prepare", "--train-file", str(FIXTURES / "tiny_dataset.jsonl"),
                        "--dev-file", str(FIXTURES / "gold_5.jsonl"),
                        "--mode", "submission", "--out", str(out)])
        assert (out / "fit.jsonl").exists() and (out / "holdout.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "prepare"
        assert len(manifest["checksums"]) == 2

    def test_bad_format_flag(self, runner, tmp_path):
        result = runner.invoke(main, ["prepare", "--train-file",
                                      str(FIXTURES / "tiny_dataset.jsonl"),
                                      "--format", "xml", "--out", str(tmp_path / "x")])
        assert result.exit_code == 1

    def test_submission_without_dev_file(self, runner, tmp_path):
        """Refused with the other option checks: before the train file, even a
        malformed one, is read and before --out is made (exit 1, one line)."""
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text('{"id": "s1", "text": \n')
        for train_file in (FIXTURES / "tiny_dataset.jsonl", malformed):
            result = runner.invoke(main, ["prepare", "--train-file", str(train_file),
                                          "--mode", "submission", "--out", str(tmp_path / "x")])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output == "config error: submission mode requires --dev-file\n"
            assert not (tmp_path / "x").exists()


class TestTrain:
    def test_train_writes_artifacts(self, runner, prepared, tmp_path):
        cfg = write_train_config(tmp_path / "cfg.yaml",
                                 prepared / "train.jsonl", prepared / "eval.jsonl")
        out = tmp_path / "run"
        result = run_ok(runner, ["train", "--config", str(cfg), "--out", str(out)])
        assert (out / "checkpoint" / "params.npz").exists()
        history = json.loads((out / "history.json").read_text())
        assert history["best_epoch"] >= 1
        assert "best epoch" in result.output
        tsv = (out / "history.tsv").read_text().splitlines()
        assert tsv[0].startswith("epoch\ttrain_loss\tval_rmse_va")
        assert tsv[0].endswith("\tgrad_norm_mean\tgrad_norm_max\tclipped_frac")
        assert tsv[0].split("\t") == [f.name for f in dataclasses.fields(EpochRecord)]
        assert len(tsv) == len(history["records"]) + 1
        assert {"grad_norm_mean", "grad_norm_max", "clipped_frac"} <= set(history["records"][0])

    def test_echoes_reference_defaults(self, runner, prepared, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        Path(cfg_path).write_text(yaml.safe_dump({
            "encoder": {"type": "tiny", "dim": 16, "seed": 0},
            "data": {"fit": str(prepared / "train.jsonl"), "val": str(prepared / "eval.jsonl")},
            "train": {"max_epochs": 1, "patience": 1},
        }))
        result = run_ok(runner, ["train", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "run")])
        for line in ("batch_size: 16", "learning_rate: 2e-05", "warmup_ratio: 0.1",
                     "seed: 42", "grad_clip_norm: 1.0"):
            assert line in result.output

    @pytest.mark.parametrize("same_file", [True, False], ids=["same-file", "one-shared-sentence"])
    def test_fit_and_val_sharing_a_sentence_exit_code(self, runner, prepared, tmp_path,
                                                      same_file):
        """Splits are sentence-disjoint: fit and val files that share a sentence
        id are a data error naming both files, before any training or output."""
        fit_path = prepared / "train.jsonl"
        fit_set = read_instances(fit_path)
        val_path = fit_path
        if not same_file:
            val_path = tmp_path / "val.jsonl"
            write_instances(fit_set[:1] + read_instances(prepared / "eval.jsonl"), val_path)
        shared = sorted({i.sentence_id for i in fit_set} & {i.sentence_id
                                                            for i in read_instances(val_path)})
        cfg = write_train_config(tmp_path / "cfg.yaml", fit_path, val_path)
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == (f"data error: {fit_path} (data.fit) and {val_path} (data.val) "
                                 f"sentence ids overlap: {shared[:5]}\n")
        assert len(shared) == (8 if same_file else 1)
        assert not (tmp_path / "run").exists()

    def test_missing_val_data(self, runner, prepared, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        Path(cfg_path).write_text(yaml.safe_dump({
            "data": {"fit": str(prepared / "train.jsonl")},
        }))
        result = runner.invoke(main, ["train", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert "validation set required" in result.output

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--config", str(tmp_path / "nope.yaml"),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 1

    def test_unknown_setting_is_config_error(self, runner, prepared, tmp_path):
        cfg = write_train_config(tmp_path / "cfg.yaml", prepared / "train.jsonl",
                                 prepared / "eval.jsonl", learning_rat=0.5, adam_beta1=0.5)
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert "config error: unknown train settings: adam_beta1, learning_rat" in result.output
        assert not (tmp_path / "run").exists()

    def test_non_utf8_config_is_config_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(b"train:\n  seed: \xff\n")
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert f"config error: {cfg}: not UTF-8 text" in result.output


class TestPredict:
    @pytest.fixture
    def zero_head_checkpoint(self, tmp_path):
        model = DimASRModel(TinyEncoder(dim=16, seed=0), seed=1)
        model.head.w2[:] = 0.0
        model.head.b2[:] = 0.0
        path = tmp_path / "zero_ckpt"
        save_checkpoint(model, path)
        return path

    def test_zero_head_predicts_midpoint(self, runner, prepared, zero_head_checkpoint, tmp_path):
        out = tmp_path / "preds"
        run_ok(runner, ["predict", "--checkpoint", str(zero_head_checkpoint),
                        "--instances", str(prepared / "eval.jsonl"), "--out", str(out)])
        lines = (out / "predictions.jsonl").read_text().strip().split("\n")
        n_instances = len((prepared / "eval.jsonl").read_text().strip().split("\n"))
        assert len(lines) == n_instances
        assert all(json.loads(l)["va"] == "5.00#5.00" for l in lines)

    def test_deterministic(self, runner, prepared, zero_head_checkpoint, tmp_path):
        contents = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_ok(runner, ["predict", "--checkpoint", str(zero_head_checkpoint),
                            "--instances", str(prepared / "eval.jsonl"), "--out", str(out)])
            contents.append((out / "predictions.jsonl").read_bytes())
        assert contents[0] == contents[1]

    def test_non_utf8_instances_exit_code(self, runner, prepared, zero_head_checkpoint, tmp_path):
        instances = tmp_path / "inst.jsonl"
        first = (prepared / "eval.jsonl").read_bytes().splitlines()[0]
        instances.write_bytes(first + b"\n" + first.replace(b'"text": "', b'"text": "\xe9') + b"\n")
        result = runner.invoke(main, ["predict", "--checkpoint", str(zero_head_checkpoint),
                                      "--instances", str(instances), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert f"data error: {instances}:2: not UTF-8 text" in result.output

    def test_empty_aspect_exit_code(self, runner, prepared, zero_head_checkpoint, tmp_path):
        instances = tmp_path / "inst.jsonl"
        first = json.loads((prepared / "eval.jsonl").read_text().splitlines()[0])
        instances.write_text(json.dumps(first) + "\n" + json.dumps(dict(first, aspect="")) + "\n")
        result = runner.invoke(main, ["predict", "--checkpoint", str(zero_head_checkpoint),
                                      "--instances", str(instances), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output == f"data error: {instances}:2: field 'aspect' must be non-empty\n"

    def test_manifest_records_traffic(self, runner, prepared, zero_head_checkpoint, tmp_path):
        out = tmp_path / "preds"
        run_ok(runner, ["predict", "--checkpoint", str(zero_head_checkpoint),
                        "--instances", str(prepared / "eval.jsonl"), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["instances"] == 3 and 0.0 < manifest["seconds"] < 60.0

    def test_corrupt_checkpoint_manifest_exit_code(self, runner, prepared,
                                                   zero_head_checkpoint, tmp_path):
        manifest = zero_head_checkpoint / "manifest.json"
        manifest.write_text(manifest.read_text()[:-5])
        result = runner.invoke(main, ["predict", "--checkpoint", str(zero_head_checkpoint),
                                      "--instances", str(prepared / "eval.jsonl"),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert f"data error: {manifest}: malformed JSON" in result.output


    @pytest.mark.parametrize("damage,message", [
        ("absent", "No such file or directory"),
        ("truncated", "File is not a zip file"),
        ("flipped-byte", "Bad CRC-32"),
        ("object-array", "Object arrays cannot be loaded when allow_pickle=False"),
        ("nan", "parameter 'encoder.b' holds NaN or infinity"),
        ("missing-name", "checkpoint missing parameter 'encoder.b'"),
        ("extra-name", "unknown parameters ['extra']"),
        ("int32", "parameter 'encoder.b' must be float64, got int32"),
        ("other-shape", "parameter 'encoder.b' shape mismatch: checkpoint (8,) vs model (16,)"),
    ])
    def test_damaged_params_exit_code(self, runner, prepared, zero_head_checkpoint, tmp_path,
                                      damage, message):
        """Whatever is wrong with params.npz, predict exits 2 with one line
        naming it, never a traceback."""
        params = zero_head_checkpoint / "params.npz"
        data = params.read_bytes()
        with np.load(params) as npz:
            arrays = {name: npz[name] for name in npz.files}
        b = arrays["encoder.b"]
        changes = {"nan": {"encoder.b": np.where(np.arange(b.size) == 3, np.nan, b)},
                   "object-array": {"encoder.b": np.array([1.0, "x"], dtype=object)},
                   "extra-name": {"extra": b}, "int32": {"encoder.b": b.astype(np.int32)},
                   "other-shape": {"encoder.b": b[:8]}}
        if damage == "absent":
            params.unlink()
        elif damage == "truncated":
            params.write_bytes(data[:len(data) // 2])
        elif damage == "flipped-byte":  # the middle of the embedding table's data
            params.write_bytes(data[:len(data) // 2] + bytes([data[len(data) // 2] ^ 1])
                               + data[len(data) // 2 + 1:])
        else:
            arrays.update(changes.get(damage, {}))
            if damage == "missing-name":
                del arrays["encoder.b"]
            np.savez(params, **arrays)
        result = runner.invoke(main, ["predict", "--checkpoint", str(zero_head_checkpoint),
                                      "--instances", str(prepared / "eval.jsonl"),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"data error: {params}: ") and message in result.output
        assert result.output.count("\n") == 1 and "Traceback" not in result.output


class TestEvaluate:
    def test_fixture_report(self, runner, tmp_path):
        out = tmp_path / "eval"
        result = run_ok(runner, ["evaluate", "--gold", str(FIXTURES / "gold_5.jsonl"),
                                 "--pred", str(FIXTURES / "pred_5.jsonl"),
                                 "--method", "fixture", "--dataset", "tiny",
                                 "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["rmse_va"] == pytest.approx(np.sqrt(1.0625))
        assert report["method"] == "fixture"
        assert sum(c["count"] for row in report["heatmap"]["cells"] for c in row) == 5
        assert "rmse_va=1.0308" in result.output
        assert (out / "report.txt").exists()

    def test_instance_file_as_gold(self, runner, prepared, tmp_path):
        import dimasr.data as d

        gold = prepared / "eval.jsonl"
        pred = tmp_path / "pred.jsonl"
        instances = d.read_instances(gold)
        d.write_predictions(instances, [i.gold for i in instances], pred)
        out = tmp_path / "eval"
        run_ok(runner, ["evaluate", "--gold", str(gold), "--gold-format", "instances",
                        "--pred", str(pred), "--out", str(out)])
        assert json.loads((out / "report.json").read_text())["rmse_va"] == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["gold_format"] == "instances"
        assert manifest["instances"] == len(instances) and manifest["seconds"] > 0.0

    @pytest.mark.parametrize("gold,fmt", [("gold_5.jsonl", "simple_jsonl"),
                                          ("gold_5_instances.jsonl", "instances")])
    def test_report_bytes(self, runner, tmp_path, gold, fmt):
        """report.json and report.txt of the fixtures, byte for byte, from a
        dataset file and from an instance file as gold."""
        out = tmp_path / "eval"
        run_ok(runner, ["evaluate", "--gold", str(FIXTURES / gold), "--gold-format", fmt,
                        "--pred", str(FIXTURES / "pred_5.jsonl"), "--method", "fixture",
                        "--dataset", "tiny", "--out", str(out)])
        assert (out / "report.json").read_bytes() == (FIXTURES / "report_5.json").read_bytes()
        assert (out / "report.txt").read_bytes() == (FIXTURES / "report_5.txt").read_bytes()

    def test_edges_label_rows_as_given(self, runner, tmp_path):
        out = tmp_path / "eval"
        run_ok(runner, ["evaluate", "--gold", str(FIXTURES / "gold_5.jsonl"),
                        "--pred", str(FIXTURES / "pred_5.jsonl"), "--edges", "1,2.5,9",
                        "--out", str(out)])
        rows = (out / "report.txt").read_text().splitlines()[-2:]
        assert [row.split(":")[0] for row in rows] == ["  v[1,2.5)", "  v[2.5,9)"]

    def check_gold_refused(self, runner, tmp_path, lines, message):
        """evaluate of an instance gold file holding `lines` against the
        fixture's predictions exits 2 with `message`, one line, no traceback."""
        gold = tmp_path / "gold.jsonl"
        gold.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["evaluate", "--gold", str(gold), "--gold-format", "instances",
                                      "--pred", str(FIXTURES / "pred_5.jsonl"),
                                      "--out", str(tmp_path / "e")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == f"data error: {gold}{message}\n"
        assert not (tmp_path / "e").exists()

    def test_repeated_gold_instance_exit_code(self, runner, tmp_path):
        lines = (FIXTURES / "gold_5_instances.jsonl").read_text().splitlines()
        self.check_gold_refused(runner, tmp_path, lines + lines[:1],
                                ":6: duplicate instance ('g1', 0)")

    @pytest.mark.parametrize("va,message", [
        ("", "expected exactly one '#' in VA string, got ''"),
        (0, 'expected a "V#A" string, got 0'),
        (False, 'expected a "V#A" string, got False'),
        ([], 'expected a "V#A" string, got []'),
    ], ids=["empty", "zero", "false", "empty-list"])
    def test_empty_gold_va_exit_code(self, runner, tmp_path, va, message):
        """Only an absent or null "va" marks an instance unlabeled."""
        lines = (FIXTURES / "gold_5_instances.jsonl").read_text().splitlines()
        lines[1] = json.dumps(dict(json.loads(lines[1]), va=va))
        self.check_gold_refused(runner, tmp_path, lines, f":2: {message}")

    @pytest.mark.parametrize("edges", ["9,1", "5", "1,5,5,9"])
    def test_unordered_or_single_edges_are_config_error(self, runner, tmp_path, edges):
        out = tmp_path / "e"
        result = runner.invoke(main, ["evaluate", "--gold", str(FIXTURES / "gold_5.jsonl"),
                                      "--pred", str(FIXTURES / "pred_5.jsonl"),
                                      "--edges", edges, "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output == ("config error: bin edges must be two or more, strictly "
                                 f"ascending, got {edges!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("edges,bad", [("1,nan,9", "nan"), ("1,5,inf", "inf"),
                                           ("-inf,5,9", "-inf"), ("1,5,1e999", "inf")])
    def test_non_finite_edges_are_config_error(self, runner, tmp_path, edges, bad):
        out = tmp_path / "e"
        result = runner.invoke(main, ["evaluate", "--gold", str(FIXTURES / "gold_5.jsonl"),
                                      "--pred", str(FIXTURES / "pred_5.jsonl"),
                                      "--edges", edges, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"config error: bin edges must be finite, got {bad} in {edges!r}\n"
        assert not out.exists()

    def test_identical_files_zero(self, runner, tmp_path):
        import dimasr.data as d

        gold = FIXTURES / "gold_5.jsonl"
        pred = tmp_path / "pred.jsonl"
        instances = d.parse_dataset(gold)
        d.write_predictions(instances, [i.gold for i in instances], pred)
        out = tmp_path / "eval"
        run_ok(runner, ["evaluate", "--gold", str(gold), "--pred", str(pred),
                        "--out", str(out)])
        assert json.loads((out / "report.json").read_text())["rmse_va"] == 0.0

    def test_missing_instance_exit_code(self, runner, tmp_path):
        pred = tmp_path / "short.jsonl"
        lines = (FIXTURES / "pred_5.jsonl").read_text().strip().split("\n")
        pred.write_text("\n".join(lines[:-1]) + "\n")
        result = runner.invoke(main, ["evaluate", "--gold", str(FIXTURES / "gold_5.jsonl"),
                                      "--pred", str(pred), "--out", str(tmp_path / "e")])
        assert result.exit_code == 2
        assert "g5" in result.output

    def test_malformed_prediction_exit_code(self, runner, tmp_path):
        pred = tmp_path / "null.jsonl"
        lines = (FIXTURES / "pred_5.jsonl").read_text().strip().split("\n")
        broken = dict(json.loads(lines[2]), va=None)
        pred.write_text("\n".join(lines[:2] + [json.dumps(broken)] + lines[3:]) + "\n")
        result = runner.invoke(main, ["evaluate", "--gold", str(FIXTURES / "gold_5.jsonl"),
                                      "--pred", str(pred), "--out", str(tmp_path / "e")])
        assert result.exit_code == 2
        assert f"{pred}:3: expected a \"V#A\" string" in result.output


class TestLlmBaseline:
    def test_replay_run(self, runner, tmp_path):
        out = tmp_path / "llm"
        run_ok(runner, ["llm-baseline", "--config", str(FIXTURES / "llm_config.yaml"),
                        "--instances", str(FIXTURES / "llm_instances.jsonl"),
                        "--replay", str(FIXTURES / "replay_transcript.jsonl"),
                        "--out", str(out)])
        lines = (out / "predictions.jsonl").read_text().strip().split("\n")
        assert [json.loads(l)["va"] for l in lines] == ["7.10#6.30", "1.50#8.20", "5.00#5.00"]
        assert (out / "transcript.jsonl").exists()

    @pytest.mark.parametrize("pool", [False, True], ids=["default", "exemplar-pool"])
    def test_prompt_file_holds_the_prefix_sent(self, runner, prepared, tmp_path, monkeypatch,
                                               pool):
        """prompt.json + a transcript record's messages is what was sent for its
        key, and the manifest lists and checksums prompt.json."""
        sent = {}
        complete = llm_mod.ReplayTransport.complete

        def recording(self, key, messages, config):
            sent.setdefault(key, []).append(json.loads(json.dumps(messages)))
            return complete(self, key, messages, config)

        monkeypatch.setattr(llm_mod.ReplayTransport, "complete", recording)
        out = tmp_path / "llm"
        pool_args = (["--exemplar-pool", str(prepared / "train.jsonl"), "--seed", "3"]
                     if pool else [])
        run_ok(runner, ["llm-baseline", "--config", str(FIXTURES / "llm_config.yaml"),
                        "--instances", str(FIXTURES / "llm_instances.jsonl"),
                        "--replay", str(FIXTURES / "replay_transcript.jsonl"),
                        "--out", str(out)] + pool_args)
        prompt = json.loads((out / "prompt.json").read_text(encoding="utf-8"))
        exemplars = (llm_mod.sample_exemplars(read_instances(prepared / "train.jsonl"), seed=3)
                     if pool else llm_mod.DEFAULT_EXEMPLARS)
        assert prompt == llm_mod.build_prefix(exemplars)
        records = [json.loads(line)
                   for line in (out / "transcript.jsonl").read_text(encoding="utf-8").splitlines()]
        assert {r["key"]: [prompt + r["messages"]] * len(sent[r["key"]]) for r in records} == sent
        assert [len(sent[r["key"]]) for r in records] == [1, 1, 2]  # the third falls back
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"][-1] == str(out / "prompt.json")
        assert manifest["checksums"]["prompt.json"] == hashlib.sha256(
            (out / "prompt.json").read_bytes()).hexdigest()

    def test_malformed_transcript_exit_code(self, runner, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text('{"key": "a::0"}\n')
        result = runner.invoke(main, ["llm-baseline", "--config", str(FIXTURES / "llm_config.yaml"),
                                      "--instances", str(FIXTURES / "llm_instances.jsonl"),
                                      "--replay", str(transcript), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert f"{transcript}:1: field 'response'" in result.output

    def test_replay_without_a_record_for_every_instance_exit_code(self, runner, tmp_path,
                                                                  monkeypatch):
        """A replayed run refuses a transcript that has no record for some
        instance, naming the transcript and the first missing keys, before any
        request and any output."""
        transcript = tmp_path / "t.jsonl"
        lines = (FIXTURES / "replay_transcript.jsonl").read_text().splitlines()
        transcript.write_text(lines[1] + "\n")  # q2::0 only
        calls = []
        monkeypatch.setattr(llm_mod.ReplayTransport, "complete",
                            lambda self, *args: calls.append(args))
        result = runner.invoke(main, ["llm-baseline", "--config", str(FIXTURES / "llm_config.yaml"),
                                      "--instances", str(FIXTURES / "llm_instances.jsonl"),
                                      "--replay", str(transcript), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == (f"data error: {transcript}: no record for instances "
                                 "['q1::0', 'q3::0']\n")
        assert not calls and not (tmp_path / "o").exists()

    def test_live_without_credential(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("DIMASR_LLM_API_KEY", raising=False)
        cfg = tmp_path / "live.yaml"
        cfg.write_text(yaml.safe_dump({"llm": {"base_url": "https://example.invalid/v1",
                                               "model": "m"}}))
        result = runner.invoke(main, ["llm-baseline", "--config", str(cfg),
                                      "--instances", str(FIXTURES / "llm_instances.jsonl"),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "DIMASR_LLM_API_KEY" in result.output

    @pytest.mark.parametrize("base_url", ["example.com/v1", "file:///etc"])
    def test_live_base_url_must_be_http(self, runner, tmp_path, monkeypatch, base_url):
        """urllib would read a file: URL and refuse one with no scheme mid-run:
        a base_url that is not http(s) is refused before any request and any output."""
        monkeypatch.setenv("DIMASR_LLM_API_KEY", "k")
        calls = []
        monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: calls.append(args))
        cfg = tmp_path / "live.yaml"
        cfg.write_text(yaml.safe_dump({"llm": {"base_url": base_url, "model": "m"}}))
        result = runner.invoke(main, ["llm-baseline", "--config", str(cfg),
                                      "--instances", str(FIXTURES / "llm_instances.jsonl"),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
        assert result.output == ("error: live runs require an http(s) base_url in the LLM "
                                 f"config, got {base_url!r}\n")
        assert not calls and not (tmp_path / "o").exists()


class TestCompare:
    def make_report(self, path, method, dataset, rmse):
        Path(path).write_text(json.dumps({"method": method, "dataset": dataset,
                                          "rmse_va": rmse}))
        return str(path)

    def test_best_per_column(self, runner, tmp_path):
        reports = [
            self.make_report(tmp_path / "a1.json", "finetune", "eng_lap", 1.11),
            self.make_report(tmp_path / "a2.json", "finetune", "eng_res", 1.35),
            self.make_report(tmp_path / "b1.json", "llm", "eng_lap", 1.64),
            self.make_report(tmp_path / "b2.json", "llm", "eng_res", 1.67),
        ]
        out = tmp_path / "cmp"
        result = run_ok(runner, ["compare", *reports, "--out", str(out)])
        tsv = (out / "comparison.tsv").read_text()
        assert "1.1100*" in tsv and "1.6400\t" in result.output + tsv
        best = json.loads((out / "comparison.json").read_text())["best"]
        assert best == {"eng_lap": 1.11, "eng_res": 1.35}

    def test_tie_marks_both(self, runner, tmp_path):
        reports = [
            self.make_report(tmp_path / "a.json", "m1", "d", 1.0),
            self.make_report(tmp_path / "b.json", "m2", "d", 1.0),
        ]
        out = tmp_path / "cmp"
        run_ok(runner, ["compare", *reports, "--out", str(out)])
        tsv = (out / "comparison.tsv").read_text()
        assert tsv.count("1.0000*") == 2

    def test_single_report(self, runner, tmp_path):
        report = self.make_report(tmp_path / "a.json", "m1", "d", 0.5)
        run_ok(runner, ["compare", report, "--out", str(tmp_path / "cmp")])

    def test_inconsistent_datasets(self, runner, tmp_path):
        reports = [
            self.make_report(tmp_path / "a.json", "m1", "d1", 1.0),
            self.make_report(tmp_path / "b.json", "m2", "d2", 1.0),
        ]
        result = runner.invoke(main, ["compare", *reports, "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 2
        assert result.output == "data error: method 'm2' covers datasets ['d2'], expected ['d1']\n"

    @pytest.mark.parametrize("same_file", [False, True], ids=["two-files", "same-file-twice"])
    def test_repeated_method_and_dataset_exit_code(self, runner, tmp_path, same_file):
        """Two reports of one (method, dataset) are a data error naming both,
        not a table that silently keeps one of them."""
        first = self.make_report(tmp_path / "a.json", "m1", "d", 1.0)
        other = self.make_report(tmp_path / "b.json", "m2", "d", 2.0)
        second = first if same_file else self.make_report(tmp_path / "c.json", "m1", "d", 0.5)
        result = runner.invoke(main, ["compare", first, other, second,
                                      "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == (f"data error: {first} and {second} repeat (method, dataset) "
                                 "('m1', 'd')\n")
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("text,message", [
        ("not json", "malformed JSON"),
        ("[1.0]", "expected a JSON object, got list"),
        ('{"dataset": "d", "rmse_va": 1.0}', "field 'method' must be a string"),
        ('{"method": "m", "rmse_va": 1.0}', "field 'dataset' must be a string"),
        ('{"method": "m", "dataset": "d"}', "field 'rmse_va' must be a number"),
        ('{"method": "m", "dataset": "d", "rmse_va": "1.0"}', "field 'rmse_va' must be a number"),
    ])
    def test_malformed_report_exit_code(self, runner, tmp_path, text, message):
        self.check_refused(runner, tmp_path, text, message)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "-1", "-0.5", "1e999",
                                       "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "-1", "-0.5", "1e999", "10**400"])
    def test_non_finite_or_negative_rmse_exit_code(self, runner, tmp_path, value):
        shown = repr(json.loads(value))
        report = f'{{"method": "m", "dataset": "d", "rmse_va": {value}}}'
        self.check_refused(runner, tmp_path, report,
                           f"field 'rmse_va' must be finite and >= 0, got {shown}")

    def check_refused(self, runner, tmp_path, text, message):
        """compare of a good report and one holding `text` exits 2, naming the
        second report, with no traceback and no output directory."""
        good = self.make_report(tmp_path / "a.json", "m1", "d", 1.0)
        bad = tmp_path / "b.json"
        bad.write_text(text)
        result = runner.invoke(main, ["compare", good, str(bad), "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"data error: {bad}: {message}")
        assert result.output.count("\n") == 1 and not (tmp_path / "cmp").exists()


PREPARE = ["prepare", "--train-file", "{fixtures}/tiny_dataset.jsonl"]


@pytest.mark.parametrize("command,option,value,message", [
    (PREPARE, "--seed", "-1", "Invalid value for '--seed': -1 is not in the range x>=0."),
    (["llm-baseline", "--config", "{fixtures}/llm_config.yaml", "--instances",
      "{fixtures}/llm_instances.jsonl", "--replay", "{fixtures}/replay_transcript.jsonl",
      "--exemplar-pool", "{fixtures}/llm_instances.jsonl"], "--seed", "-1",
     "Invalid value for '--seed': -1 is not in the range x>=0."),
    # a ratio or holdout the split does not use still reaches the manifest
    (PREPARE, "--holdout", "nan", "config error: --holdout must be in (0, 1), got nan"),
    (PREPARE + ["--mode", "submission", "--dev-file", "{fixtures}/tiny_dataset.jsonl"], "--ratio",
     "inf", "config error: --ratio must be in (0, 1), got inf"),
    (PREPARE, "--ratio", "1.5", "config error: --ratio must be in (0, 1), got 1.5"),
], ids=["prepare-seed", "llm-baseline-seed", "prepare-holdout", "prepare-ratio-submission",
        "prepare-ratio"])
def test_out_of_range_option_exit_code(runner, tmp_path, command, option, value, message):
    args = [a.format(fixtures=FIXTURES) for a in command]
    result = runner.invoke(main, args + [option, value, "--out", str(tmp_path / "o")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert message in result.output
    assert "Traceback" not in result.output and not (tmp_path / "o").exists()


class TestPathArguments:
    """A directory where a file belongs, or a file where a directory belongs,
    is a usage error (exit 1) that click reports, not a traceback."""

    @pytest.mark.parametrize("command", [
        ["prepare", "--train-file", "{tmp}", "--out", "{tmp}/o"],
        ["train", "--config", "{tmp}", "--out", "{tmp}/o"],
        ["predict", "--checkpoint", "{fixtures}/gold_5.jsonl", "--instances",
         "{fixtures}/llm_instances.jsonl", "--out", "{tmp}/o"],
        ["evaluate", "--gold", "{tmp}", "--pred", "{fixtures}/pred_5.jsonl", "--out", "{tmp}/o"],
        ["llm-baseline", "--config", "{fixtures}/llm_config.yaml", "--instances",
         "{fixtures}/llm_instances.jsonl", "--replay", "{tmp}", "--out", "{tmp}/o"],
        ["compare", "{tmp}", "--out", "{tmp}/o"],
        ["compare", "{fixtures}/gold_5.jsonl", "--out", "{fixtures}/pred_5.jsonl"],
    ], ids=["prepare-train-file", "train-config", "predict-checkpoint", "evaluate-gold",
            "llm-baseline-replay", "compare-report", "compare-out"])
    def test_wrong_kind_of_path_is_usage_error(self, runner, tmp_path, command):
        args = [a.format(tmp=tmp_path, fixtures=FIXTURES) for a in command]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        assert "is a directory" in result.output or "is a file" in result.output

    @pytest.mark.parametrize("command", [
        ["prepare", "--train-file", "{fixtures}/tiny_dataset.jsonl"],
        ["evaluate", "--gold", "{fixtures}/gold_5.jsonl", "--pred", "{fixtures}/pred_5.jsonl"],
        ["compare", "{report}"],
    ])
    def test_out_under_a_file_is_config_error(self, runner, tmp_path, command):
        """An --out path through a regular file cannot be made: one line, exit 1."""
        (tmp_path / "afile").write_text("")
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"method": "m", "dataset": "d", "rmse_va": 1.0}))
        args = [a.format(fixtures=FIXTURES, report=report) for a in command]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "afile" / "sub")])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output == (f"config error: cannot make --out directory "
                                 f"{tmp_path / 'afile' / 'sub'}: Not a directory\n")


def _files(root):
    """Every file under `root`, by its path relative to `root`, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _fail_from(monkeypatch, kind, number, calls):
    """Make call `number` and every later one of a write-mode open (kind
    "write") or of Path.replace (kind "rename") raise OSError, as a full disk
    would; a failing open first writes the start of its file. Each such call
    is appended to `calls`; number 0 fails none."""
    inside = []  # from Python 3.11, Path.open calls io.open: count the outer call only

    def patch(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
            if inside or (kind == "write" and not set(mode) & set("wax+")):
                return real(*args, **kwargs)
            calls.append(args[0])
            inside.append(name)
            try:
                if 0 < number <= len(calls):
                    if kind == "write":  # a half-written file under the staged name
                        with real(*args, **kwargs) as fh:
                            fh.write(b"{" if "b" in fh.mode else "{")
                    raise OSError(errno.EIO, "injected failure", str(args[0]))
                return real(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, wrapper)

    # zipfile (np.savez) opens with io.open; pathlib's writers with Path.open
    for owner, name in [(Path, "open"), (io, "open")] if kind == "write" else [(Path, "replace")]:
        patch(owner, name)


class TestOutputs:
    """Every command stages its outputs inside --out, moves them into place
    together and writes manifest.json last."""

    COMMANDS = {
        "prepare": ["prepare", "--train-file", "{fixtures}/tiny_dataset.jsonl"],
        "train": ["train", "--config", "{config}"],
        "predict": ["predict", "--checkpoint", "{checkpoint}", "--instances",
                    "{fixtures}/llm_instances.jsonl"],
        "evaluate": ["evaluate", "--gold", "{fixtures}/gold_5.jsonl", "--pred",
                     "{fixtures}/pred_5.jsonl"],
        "llm-baseline": ["llm-baseline", "--config", "{fixtures}/llm_config.yaml", "--instances",
                         "{fixtures}/llm_instances.jsonl", "--replay",
                         "{fixtures}/replay_transcript.jsonl"],
        "compare": ["compare", "{fixtures}/report_5.json"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_interrupted_writes_leave_no_lying_manifest(self, runner, prepared, tiny_checkpoint,
                                                       tmp_path, monkeypatch, command):
        """Run into a full --out again, with each write-mode open (the outputs
        and the manifest, in turn) and then each rename made to fail: exit 1
        with one line naming the output, and what is left is an earlier
        manifest whose files all match their checksums, or no manifest; never
        a half-written file or a staging directory."""
        config = write_train_config(tmp_path / "cfg.yaml",
                                    prepared / "train.jsonl", prepared / "eval.jsonl")
        out, full = tmp_path / "out", tmp_path / "full"
        args = [a.format(fixtures=FIXTURES, config=config, checkpoint=tiny_checkpoint)
                for a in self.COMMANDS[command]] + ["--out", str(out)]
        shown = run_ok(runner, args).output.splitlines()
        calls = {"write": [], "rename": []}
        with monkeypatch.context() as patch:
            for kind, seen in calls.items():
                _fail_from(patch, kind, 0, seen)
            run_ok(runner, args)  # a second run into a full --out, as the failing runs are
        complete = _files(out)
        shutil.copytree(out, full)
        for kind, seen in calls.items():
            for number in range(1, len(seen) + 1):
                shutil.rmtree(out)
                shutil.copytree(full, out)
                with monkeypatch.context() as patch:
                    _fail_from(patch, kind, number, [])
                    result = runner.invoke(main, args)
                # what a full run shows, cut short, then one line naming the final path
                assert result.exit_code == 1 and isinstance(result.exception, SystemExit), (
                    kind, number, result.output)
                *before, error = result.output.splitlines()
                assert before == shown[:len(before)], (kind, number, result.output)
                assert error.startswith(f"config error: cannot write {out}{os.sep}"), error
                assert ".partial-" not in result.output
                assert not list(out.glob(".partial-*"))
                left = _files(out)
                for path, data in left.items():
                    if path != Path("manifest.json"):
                        assert data == complete[path], (kind, number, path)
                if Path("manifest.json") in left:
                    manifest = json.loads(left[Path("manifest.json")])
                    for path in map(Path, manifest["outputs"]):
                        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                                == manifest["checksums"][path.name]), (kind, number, path)
        assert len(calls["write"]) >= 2 and len(calls["rename"]) >= 2  # outputs and manifest

    def test_second_train_replaces_the_checkpoint(self, runner, prepared, tmp_path):
        config = write_train_config(tmp_path / "cfg.yaml",
                                    prepared / "train.jsonl", prepared / "eval.jsonl")
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        run_ok(runner, ["train", "--config", str(config), "--out", str(out)])
        (out / "checkpoint" / "stray.txt").write_text("from the first run")
        for target in (out, fresh):
            run_ok(runner, ["train", "--config", str(config), "--seed", "7", "--out", str(target)])
        assert _files(out / "checkpoint") == _files(fresh / "checkpoint")
        assert load_checkpoint(out / "checkpoint").seed == 7
        assert not list(out.glob(".partial-*"))

    @pytest.mark.parametrize("command,taken,kind,message", [
        ("predict", "predictions.jsonl", "dir", "Is a directory"),
        ("train", "checkpoint", "file", "Not a directory"),
    ])
    def test_output_name_taken_by_the_other_kind(self, runner, prepared, tiny_checkpoint,
                                                 tmp_path, command, taken, kind, message):
        """An output that cannot be moved into place is refused when it is asked
        for, before train fits: one line naming it, exit 1, no manifest, and
        what held the name is left as it was."""
        config = write_train_config(tmp_path / "cfg.yaml",
                                    prepared / "train.jsonl", prepared / "eval.jsonl")
        out = tmp_path / "out"
        out.mkdir()
        if kind == "dir":
            (out / taken).mkdir()
        else:
            (out / taken).write_text("")
        args = [a.format(fixtures=FIXTURES, config=config, checkpoint=tiny_checkpoint)
                for a in self.COMMANDS[command]]
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output == f"config error: cannot write {out / taken}: {message}\n"
        assert {p.name for p in out.iterdir()} == {taken}
        assert (out / taken).is_dir() == (kind == "dir")

    def test_full_disk_names_the_out_directory(self, runner, tmp_path, monkeypatch):
        """A failed write that names no file, as a full disk's does, names --out."""
        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(data_mod, "write_json", full)
        out = tmp_path / "out"
        result = runner.invoke(main, ["evaluate", "--gold", str(FIXTURES / "gold_5.jsonl"),
                                      "--pred", str(FIXTURES / "pred_5.jsonl"), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output == (f"config error: cannot write {out}: "
                                 f"{os.strerror(errno.ENOSPC)}\n")
        assert list(out.iterdir()) == []

    def test_predict_refuses_out_of_its_own_checkpoint(self, runner, prepared, tmp_path):
        """predict's manifest.json would replace the checkpoint's: refused
        before anything is written, and the checkpoint still loads."""
        checkpoint = tmp_path / "ck"
        save_checkpoint(DimASRModel(TinyEncoder(dim=8, seed=0), seed=1), checkpoint)
        before = _files(checkpoint)
        for out in (checkpoint, checkpoint / ".." / "ck"):
            result = runner.invoke(main, ["predict", "--checkpoint", str(checkpoint), "--instances",
                                          str(prepared / "eval.jsonl"), "--out", str(out)])
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output == (f"config error: --out {out} is the --checkpoint "
                                     f"directory this command reads\n")
        assert _files(checkpoint) == before
        run_ok(runner, ["predict", "--checkpoint", str(checkpoint), "--instances",
                        str(prepared / "eval.jsonl"), "--out", str(tmp_path / "preds")])


class TestDatasetText:
    """A dataset's text and aspect are strings and its id a string or an
    integer, each of Unicode text: anything else is a data error (exit 2)
    naming the file and line (or array index), not a traceback."""

    @staticmethod
    def prepare(runner, tmp_path, records, fmt):
        path = tmp_path / ("data.jsonl" if fmt == "simple_jsonl" else "data.json")
        if fmt == "simple_jsonl":
            path.write_text("".join(json.dumps(r) + "\n" for r in records))
            where = f"{path}:{len(records)}"
        else:
            path.write_text(json.dumps(records, indent=1))
            where = f"{path}[{len(records) - 1}]"
        return runner.invoke(main, ["prepare", "--train-file", str(path), "--format", fmt,
                                    "--out", str(tmp_path / "out")]), where

    GOOD = [{"id": "s1", "text": "fine food", "aspects": [{"aspect": "food", "va": "6#6"}]},
            {"id": 2, "text": "slow staff", "aspects": [{"aspect": "staff", "va": "3#5"}]}]

    @pytest.mark.parametrize("fmt", ["simple_jsonl", "task_json"])
    @pytest.mark.parametrize("field,value,message", [
        ("text", None, "field 'text' must be a string, got None"),
        ("text", 5, "field 'text' must be a string, got 5"),
        ("aspect", 7, "field 'aspect' must be a string, got 7"),
        ("aspect", ["food"], "field 'aspect' must be a string, got ['food']"),
        ("id", True, "field 'id' must be a string or an integer, got True"),
        ("id", 1.5, "field 'id' must be a string or an integer, got 1.5"),
        ("id", None, "field 'id' must be a string or an integer, got None"),
    ])
    def test_field_of_another_type_exit_code(self, runner, tmp_path, fmt, field, value, message):
        bad = {"id": "s3", "text": "the soup", "aspects": [{"aspect": "soup", "va": "5#5"}]}
        if field == "aspect":
            bad["aspects"][0]["aspect"] = value
        else:
            bad[field] = value
        result, where = self.prepare(runner, tmp_path, self.GOOD + [bad], fmt)
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == f"data error: {where}: {message}\n"
        assert not (tmp_path / "out" / "train.jsonl").exists()

    @pytest.mark.parametrize("fmt", ["simple_jsonl", "task_json"])
    def test_integer_id_is_read_as_its_digits(self, runner, tmp_path, fmt):
        result, _ = self.prepare(runner, tmp_path, self.GOOD + [
            dict(self.GOOD[0], id=30, text="more food")], fmt)
        assert result.exit_code == 0, result.output
        ids = {r["id"] for r in map(json.loads, (tmp_path / "out" / "train.jsonl").read_text()
                                   .splitlines() + (tmp_path / "out" / "eval.jsonl").read_text()
                                   .splitlines())}
        assert ids == {"s1", "2", "30"}

    @pytest.mark.parametrize("fmt", ["simple_jsonl", "task_json"])
    def test_lone_surrogate_exit_code(self, runner, tmp_path, fmt):
        """A lone surrogate escape decodes to no character: exit 2 naming its
        line, where it used to fail writing the instance file."""
        bad = dict(self.GOOD[0], id="s3", text="bad \ud800 text")
        result, where = self.prepare(runner, tmp_path, self.GOOD + [bad], fmt)
        if fmt == "task_json":  # json.dumps(indent=1) puts each key on its own line
            path = tmp_path / "data.json"
            lineno = path.read_text().split("\n").index('  "text": "bad \\ud800 text",') + 1
            where = f"{path}:{lineno}"
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == (f"data error: {where}: a string holds a lone surrogate, "
                                 "which is not Unicode text\n")
        assert not (tmp_path / "out" / "train.jsonl").exists()

    @pytest.mark.parametrize("fmt", ["simple_jsonl", "task_json"])
    def test_surrogate_pair_escape_is_text(self, runner, tmp_path, fmt):
        """An emoji written with ensure_ascii is a pair of escapes: one character."""
        emoji = dict(self.GOOD[0], id="s3", text="good \U0001f600 \\ud800 text")
        result, _ = self.prepare(runner, tmp_path, self.GOOD + [emoji], fmt)
        assert result.exit_code == 0, result.output
        texts = [json.loads(line)["text"] for name in ("train.jsonl", "eval.jsonl")
                 for line in (tmp_path / "out" / name).read_text(encoding="utf-8").splitlines()]
        assert "good \U0001f600 \\ud800 text" in texts


# pieces of a string as a JSON file holds it: escapes of control characters,
# a quote, a backslash and paired surrogates (a high escape then a low one),
# characters written as they are, non-BMP ones and line separators that
# str.splitlines would split on among them; a lone surrogate escape is added
# to at most one string of a file
_FILE_PIECES = st.sampled_from(["\\u0000", "\\u001f", "\\n", "\\t", '\\"', "\\\\",
                                "\\ud800\\udfff", "\\ud83d\\ude00", "\U0001f600", "\u4e2d",
                                "\u00e9", " ", "\x85", "\u2028", "word"])
_file_strings = st.lists(_FILE_PIECES, max_size=4).map("".join)
_LONE_SURROGATES = st.sampled_from(["\\ud800", "\\udbff", "\\udc00", "\\udfff"])


def _decoded(literal):
    """The string a JSON string literal's body decodes to, or None when it holds
    a lone surrogate, which is no Unicode text."""
    text = json.loads(f'"{literal}"')
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return None
    return text


def _assert_standard_lines(path):
    """Every line is json.dumps of what it decodes to, with ensure_ascii=False."""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    for line in text[:-1].split("\n"):
        assert line == json.dumps(json.loads(line), ensure_ascii=False)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("round_trip") / "checkpoint"
    save_checkpoint(DimASRModel(TinyEncoder(dim=8, seed=0), seed=1), path)
    return path


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sentences=st.lists(st.tuples(_file_strings, _file_strings, _file_strings),
                          min_size=2, max_size=3),
       lone=st.none() | st.tuples(st.integers(0, 2), st.sampled_from([0, 1, 2]), st.booleans(),
                                  _LONE_SURROGATES))
@example(sentences=[("bad \\ud800 text", "", ""), ("fine", "", "")], lone=None)
@example(sentences=[("\\ud800\\udfff \\ud83d\\ude00 \U0001f600", "\\u2028", ""),
                    ('a \\"quote\\" \\\\ and \\u0001', "\x85", "\\n")], lone=None)
@example(sentences=[("fine", "", "\\udc00"), ("fine", "", "")], lone=None)
def test_every_accepted_text_is_written_back(runner, tmp_path, monkeypatch, tiny_checkpoint,
                                              sentences, lone):
    """Texts, aspects and replayed responses through prepare, predict and
    llm-baseline: a file whose strings are all Unicode text is written back,
    each output line the standard encoding of its record and each text as
    read; a file with a lone surrogate is refused (exit 2, one line) before
    any output or request."""
    if lone is not None:  # at the start or the end of one text, aspect or response
        row, column, at_end, escape = lone
        sentences = [list(strings) for strings in sentences]
        piece = sentences[row % len(sentences)][column]
        sentences[row % len(sentences)][column] = piece + escape if at_end else escape + piece
    d = Path(tempfile.mkdtemp(dir=tmp_path))
    dataset, instances, transcript = d / "data.jsonl", d / "inst.jsonl", d / "replay.jsonl"
    with dataset.open("w", encoding="utf-8") as data_fh, \
            instances.open("w", encoding="utf-8") as inst_fh, \
            transcript.open("w", encoding="utf-8") as replay_fh:
        for i, (text, aspect, response) in enumerate(sentences):
            aspect = "a" + aspect  # never blank: a file is refused only for a lone surrogate
            data_fh.write(f'{{"id": "s{i}", "text": "{text}", '
                          f'"aspects": [{{"aspect": "{aspect}", "va": "6#6"}}]}}\n')
            inst_fh.write(f'{{"id": "s{i}", "aspect_index": 0, "text": "{text}", '
                          f'"aspect": "{aspect}"}}\n')
            replay_fh.write(f'{{"key": "s{i}::0", "response": "{response} 6#6"}}\n')
    texts = [(_decoded(text), _decoded("a" + aspect)) for text, aspect, _ in sentences]
    responses = [_decoded(response + " 6#6") for _, _, response in sentences]
    good = all(None not in pair for pair in texts)
    requests = []
    complete = llm_mod.ReplayTransport.complete
    monkeypatch.setattr(llm_mod.ReplayTransport, "complete",
                        lambda self, *args: requests.append(args) or complete(self, *args))

    runs = {
        "prepare": (good, [], ["--train-file", dataset, "--seed", "0"]),
        "predict": (good, [], ["--checkpoint", tiny_checkpoint, "--instances", instances]),
        "llm-baseline": (good and None not in responses, requests,
                         ["--config", FIXTURES / "llm_config.yaml", "--instances", instances,
                          "--replay", transcript]),
    }
    for command, (accepted, sent, args) in runs.items():
        out = d / command
        result = runner.invoke(main, [command, *map(str, args), "--out", str(out)])
        if not accepted:
            assert result.exit_code == 2 and isinstance(result.exception, SystemExit), command
            assert result.output.startswith("data error: ") and result.output.count("\n") == 1
            assert "lone surrogate" in result.output
            assert not out.exists() and not sent
            continue
        assert result.exit_code == 0, result.output
        written = sorted(out.glob("*.jsonl"))
        assert written
        for path in written:
            _assert_standard_lines(path)
        if command == "prepare":
            back = [(i.text, i.aspect) for name in ("train.jsonl", "eval.jsonl")
                    for i in read_instances(out / name)]
            assert sorted(back) == sorted(texts)
    if runs["llm-baseline"][0]:
        records = (d / "llm-baseline" / "transcript.jsonl").read_text("utf-8")[:-1].split("\n")
        assert [(r["messages"], r["response"]) for r in map(json.loads, records)] == [
            ([{"role": "user", "content": llm_mod.render_query(*pair)}], response)
            for pair, response in zip(texts, responses)]


HF_MISSING = "error: the pretrained encoder requires the 'hf' extra (pip install dimasr[hf])"
# the manifest of the checkpoint test_probe writes, which a probe edits
TINY_MANIFEST = {
    "format_version": 1, "encoder": {"type": "tiny", "dim": 8, "vocab_size": 4096, "max_len": 256,
                                     "seed": 0},
    "hidden_dim": 8, "max_len": 256, "input_dropout_rate": 0.1, "head_dropout_rate": 0.1,
    "head_internal_dropout": True, "seed": 1}


class TestMalformedSettings:
    """Every config section and the config's top level are closed and typed: a
    bad key or value is a config error (exit 1) and a bad, foreign or absent
    checkpoint manifest a data error (exit 2), each one line naming the key or
    the manifest, never a traceback. A missing optional package is a runtime
    failure (exit 3)."""

    @pytest.mark.parametrize("command,probe,code,message", [
        ("train", ("encoder", "dimension", 8), 1,
         "config error: unknown encoder settings: dimension"),
        ("train", ("encoder", "dim", 8.7), 1,
         "config error: encoder setting 'dim' must be an integer, got 8.7"),
        ("train", ("encoder", "dim", "x"), 1,
         "config error: encoder setting 'dim' must be an integer, got 'x'"),
        ("train", ("encoder", None, 5), 1, "encoder must be a mapping, got 5"),
        ("train", ("encoder", None, {"type": "hf"}), 3, HF_MISSING),
        ("train", ("encoder", "max_len", 3), 1,
         "config error: tiny encoder needs dim >= 1, vocab_size > 3, max_len >= 4 and seed >= 0, "
         "got 32, 4096, 3 and 0"),
        ("train", ("encoder", None, {"type": "hf", "max_len": 2}), 1,
         "config error: max_len must be >= 4, got 2"),
        ("train", ("train", "max_epochs", True), 1,
         "config error: train setting 'max_epochs' must be an integer, got True"),
        ("train", ("train", "batch_size", "16"), 1,
         "config error: train setting 'batch_size' must be an integer, got '16'"),
        ("train", ("train", "learning_rate", "2e-5"), 1,
         "config error: train setting 'learning_rate' must be a number, got '2e-5'"),
        ("train", ("train", None, 5), 1, "train must be a mapping, got 5"),
        ("train", ("train", "dropout", 1.5), 1, "config error: dropout must be in [0, 1), got 1.5"),
        ("train", ("train", "dropout", -0.5), 1,
         "config error: dropout must be in [0, 1), got -0.5"),
        ("train", ("train", "dropout", 1.0), 1, "config error: dropout must be in [0, 1), got 1.0"),
        ("train", ("train", "weight_decay", -1.0), 1,
         "config error: weight_decay must be >= 0, got -1.0"),
        ("train", ("train", "grad_clip_norm", float("inf")), 1,
         "config error: grad_clip_norm must be finite, got inf"),
        ("train", ("train", "learning_rate", float("nan")), 1,
         "config error: learning_rate must be finite, got nan"),
        ("train", ("train", "max_len", -5), 1,
         "config error: seed must be >= 0 and max_len >= 4, got 42 and -5"),
        ("train", ("data", None, 3), 1, "data must be a mapping, got 3"),
        ("train", ("data", "fit", "missing.jsonl"), 1,
         "config error: config must name data.fit and data.val instance files"),
        ("train", ("trian", None, {}), 1, "unknown top-level settings: trian"),
        ("llm-baseline", "llm: {temprature: 0.9}", 1,
         "config error: unknown llm settings: temprature"),
        ("llm-baseline", "llm: 5", 1, "llm must be a mapping, got 5"),
        ("llm-baseline", "llm: {temperature: warm}", 1,
         "config error: llm setting 'temperature' must be a number, got 'warm'"),
        ("llm-baseline", "llm: {max_retries: -1}", 1,
         "config error: max_retries must be >= 0, got -1"),
        ("llm-baseline", "llm: {timeout: 0}", 1, "config error: timeout must be > 0, got 0"),
        ("llm-baseline", "llm: {timeout: -5}", 1, "config error: timeout must be > 0, got -5"),
        ("llm-baseline", "llm: {timeout: .inf}", 1,
         "config error: timeout must be finite, got inf"),
        ("llm-baseline", "llm: {temperature: .nan}", 1,
         "config error: temperature must be finite, got nan"),
        ("llm-baseline", "n_exemplars: x", 1, "n_exemplars must be an integer, got 'x'"),
        ("llm-baseline", "n_exemplars: -2", 1, "config error: n_exemplars must be >= 1, got -2"),
        ("predict", "[]", 2, "checkpoint settings must be a mapping, got list"),
        ("predict", '{"format_version": 1}', 2,
         "missing checkpoint settings: encoder, hidden_dim"),
        ("predict", json.dumps({
            "format_version": 1, "encoder": {"type": "hf"}, "hidden_dim": 768, "max_len": 256,
            "input_dropout_rate": 0.1, "head_dropout_rate": 0.1, "head_internal_dropout": True,
            "seed": 1}), 3, HF_MISSING),
        ("predict", json.dumps(dict(TINY_MANIFEST, hidden_dim=99)), 2,
         "(hidden_dim, max_len) must be the encoder's (8, 256)"),
        ("predict", json.dumps(dict(TINY_MANIFEST, max_len=7)), 2,
         "(hidden_dim, max_len) must be the encoder's (8, 256)"),
        ("predict", json.dumps(dict(TINY_MANIFEST, format_version=2)), 2,
         "checkpoint format version 2 != supported 1"),
        ("predict", json.dumps({"command": "prepare", "config": {}, "seed": 42}), 2,
         "checkpoint format version None != supported 1"),
        ("predict", None, 2, "not found; not a checkpoint directory"),
    ], ids=["encoder-unknown", "encoder-float-dim", "encoder-string-dim", "encoder-not-mapping",
            "encoder-hf-without-extra", "encoder-max-len-three", "encoder-hf-max-len-two",
            "train-bool-epochs", "train-string-batch", "train-string-lr", "train-not-mapping",
            "train-dropout-above-one", "train-dropout-negative", "train-dropout-one",
            "train-negative-weight-decay", "train-infinite-clip", "train-nan-lr",
            "train-negative-max-len",
            "data-not-mapping", "data-missing-file", "top-level-unknown", "llm-unknown",
            "llm-not-mapping", "llm-string-temperature", "llm-negative-retries",
            "llm-zero-timeout", "llm-negative-timeout", "llm-infinite-timeout", "llm-nan-temperature",
            "n-exemplars-string", "n-exemplars-negative", "manifest-list", "manifest-missing-keys",
            "manifest-hf-without-extra", "manifest-other-hidden-dim", "manifest-other-max-len",
            "manifest-other-version", "manifest-of-prepare", "manifest-absent"])
    def test_probe(self, runner, prepared, tmp_path, monkeypatch, command, probe, code, message):
        # `import torch` raises ImportError, so an `hf` encoder lacks its optional packages
        monkeypatch.setitem(sys.modules, "torch", None)
        if command == "train":
            cfg = tmp_path / "cfg.yaml"
            write_train_config(cfg, prepared / "train.jsonl", prepared / "eval.jsonl")
            settings = yaml.safe_load(cfg.read_text())
            section, key, value = probe  # a key of None replaces the whole section
            if key is None:
                settings[section] = value
            else:
                settings[section][key] = value
            cfg.write_text(yaml.safe_dump(settings))
            args = ["train", "--config", str(cfg)]
        elif command == "llm-baseline":
            cfg = tmp_path / "llm.yaml"
            cfg.write_text(probe + "\n")
            args = ["llm-baseline", "--config", str(cfg),
                    "--instances", str(FIXTURES / "llm_instances.jsonl"),
                    "--replay", str(FIXTURES / "replay_transcript.jsonl"),
                    "--exemplar-pool", str(prepared / "train.jsonl")]
        else:
            checkpoint = tmp_path / "ckpt"
            save_checkpoint(DimASRModel(TinyEncoder(dim=8, seed=0), seed=1), checkpoint)
            if probe is None:
                (checkpoint / "manifest.json").unlink()
            else:
                (checkpoint / "manifest.json").write_text(probe)
            args = ["predict", "--checkpoint", str(checkpoint),
                    "--instances", str(prepared / "eval.jsonl")]
            if code == 2:
                message = f"data error: {checkpoint / 'manifest.json'}: {message}"
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        assert "Traceback" not in result.output
        assert result.output.count("\n") == 1 and message in result.output
        assert not (tmp_path / "out").exists()


def test_encoder_failure_names_the_batch(runner, prepared, tmp_path, monkeypatch):
    """An encoder that raises fails the run with its batch's first keys: fit
    raises TrainerError, and predict exits 3 with one line, no traceback."""
    def fail(self, token_seqs):
        raise ValueError("backbone failed")

    fit_set, val_set = (read_instances(prepared / n) for n in ("train.jsonl", "eval.jsonl"))
    checkpoint = tmp_path / "ckpt"
    save_checkpoint(DimASRModel(TinyEncoder(dim=8, seed=0), seed=1), checkpoint)
    monkeypatch.setattr(TinyEncoder, "encode_batch", fail)
    with pytest.raises(TrainerError) as info:
        fit(DimASRModel(TinyEncoder(dim=8, seed=0), seed=1), fit_set, val_set,
            TrainConfig(batch_size=4, max_epochs=1, patience=1))
    named = re.fullmatch(r"encoder failed on batch (\[.*\])\.\.\.: backbone failed", str(info.value))
    keys = ast.literal_eval(named.group(1))
    assert len(keys) == 3 and set(keys) <= {inst.key for inst in fit_set}
    result = runner.invoke(main, ["predict", "--checkpoint", str(checkpoint), "--instances",
                                  str(prepared / "eval.jsonl"), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
    keys = [inst.key for inst in val_set[:3]]
    assert result.output == f"error: encoder failed on batch {keys}...: backbone failed\n"


HIDDEN = 24  # the fake backbone's width
FAKE_VOCAB = 500


class FakeTensor(np.ndarray):
    """A numpy array with torch's .numpy()."""

    def numpy(self):
        return np.asarray(self)


class FakeTokenizer:
    cls_token_id, pad_token_id, sep_token_id = 0, 1, 2  # XLM-R's

    def encode(self, text, add_special_tokens=True):
        assert not add_special_tokens
        return [zlib.crc32(w.encode()) % (FAKE_VOCAB - 3) + 3 for w in text.lower().split()]


class FakeBackbone:
    """Hidden state of each position: tanh of its token's embedding plus the
    mean embedding of the row's tokens. A backbone named "...-masked" takes
    the mean over the tokens the attention mask admits, any other over the
    padding too, so its rows depend on which sequences share a batch.
    Records each sequence it encodes, without its padding."""

    def __init__(self, name):
        self.name = name
        self.config = types.SimpleNamespace(hidden_size=HIDDEN)
        self.emb = np.random.default_rng(0).normal(size=(FAKE_VOCAB, HIDDEN)).astype(np.float32)
        self.seen = []

    def eval(self):
        return self

    def __call__(self, input_ids, attention_mask):
        self.seen.extend(tuple(ids[mask == 1]) for ids, mask in zip(input_ids, attention_mask))
        if not self.name.endswith("-masked"):
            attention_mask = np.ones_like(attention_mask)
        mask = attention_mask[..., None].astype(np.float32)
        pooled = (self.emb[input_ids] * mask).sum(axis=1) / mask.sum(axis=1)
        states = np.tanh(self.emb[input_ids] + pooled[:, None, :])
        return types.SimpleNamespace(last_hidden_state=states.view(FakeTensor))


@pytest.fixture
def backbones(monkeypatch):
    """Install numpy-backed `torch` and `transformers` stand-ins; returns the
    list of backbones HFEncoder loads through them, in load order."""
    loaded = []
    torch = types.ModuleType("torch")
    torch.long = np.int64
    torch.full = lambda shape, fill, dtype: np.full(shape, fill, dtype)
    torch.zeros = lambda shape, dtype: np.zeros(shape, dtype)
    torch.tensor = lambda data, dtype: np.array(data, dtype)
    torch.no_grad = contextlib.nullcontext
    transformers = types.ModuleType("transformers")
    transformers.AutoTokenizer = types.SimpleNamespace(from_pretrained=lambda name: FakeTokenizer())
    transformers.AutoModel = types.SimpleNamespace(
        from_pretrained=lambda name: loaded.append(FakeBackbone(name)) or loaded[-1])
    monkeypatch.setitem(sys.modules, "torch", torch)
    monkeypatch.setitem(sys.modules, "transformers", transformers)
    return loaded


class TestPretrainedEncoder:
    """HFEncoder's own code (padding, attention mask, CLS row, spec() and an
    `hf` checkpoint) through a fake backbone."""

    def test_train_predict_evaluate(self, runner, backbones, tmp_path):
        # 21 fit instances; 70 val instances, in predict chunks of 64 and 6;
        # texts of 5 to 16 words, so a batch's padding depends on its members
        instances = [dataclasses.replace(inst, text=inst.text + " very" * (k // 8))
                     for k, inst in enumerate(make_instances(91, seed=1))]
        write_instances(instances[:21], tmp_path / "fit.jsonl")
        write_instances(instances[21:], tmp_path / "val.jsonl")
        val_set = read_instances(tmp_path / "val.jsonl")  # gold as the files round it
        cfg = write_train_config(tmp_path / "cfg.yaml", tmp_path / "fit.jsonl",
                                 tmp_path / "val.jsonl", dropout=0.1)
        settings = yaml.safe_load(cfg.read_text())
        settings["encoder"] = {"type": "hf", "name": "fake-xlmr"}
        cfg.write_text(yaml.safe_dump(settings))
        run_ok(runner, ["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        checkpoint = tmp_path / "run" / "checkpoint"
        run_ok(runner, ["predict", "--checkpoint", str(checkpoint),
                        "--instances", str(tmp_path / "val.jsonl"), "--out", str(tmp_path / "preds")])
        predictions = tmp_path / "preds" / "predictions.jsonl"
        run_ok(runner, ["evaluate", "--gold", str(tmp_path / "val.jsonl"), "--gold-format",
                        "instances", "--pred", str(predictions), "--out", str(tmp_path / "eval")])

        trained, predicted = backbones
        restored = load_checkpoint(checkpoint)
        # one forward pass per fit and val instance over the whole fit
        assert Counter(trained.seen) == Counter(map(tuple, restored.token_ids(instances)))
        assert Counter(predicted.seen) == Counter(map(tuple, restored.token_ids(val_set)))
        history = json.loads((tmp_path / "run" / "history.json").read_text())
        best = history["records"][history["best_epoch"] - 1]["val_rmse_va"]
        assert evaluate_rmse(restored, val_set) == best
        write_predictions(val_set, restored.predict_pairs(val_set), tmp_path / "again.jsonl")
        assert predictions.read_bytes() == (tmp_path / "again.jsonl").read_bytes()
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["n"] == len(val_set) and report["rmse_va"] == pytest.approx(best, abs=0.01)
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        assert manifest["encoder"] == restored.encoder.spec() == {
            "type": "hf", "name": "fake-xlmr", "max_len": 256}
        assert (manifest["hidden_dim"], manifest["max_len"]) == (HIDDEN, 256)

    def test_cls_row_does_not_depend_on_padding(self, backbones):
        encoder = HFEncoder("fake-xlmr-masked", max_len=32)
        short = build_input("the soup", "soup", encoder)
        longer = build_input("the soup was cold and the staff were slow", "staff", encoder)
        alone, cache = encoder.encode_batch([short])
        beside, _ = encoder.encode_batch([short, longer])
        assert cache is None and beside.shape == (2, HIDDEN)
        assert np.array_equal(alone[0], beside[0])
        assert backbones[0].seen == [tuple(short), tuple(short), tuple(longer)]


README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_commands():
    """The README's quick-start sh block: one argument list per command, with
    continuation lines joined and comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start[^\n]*\n+```sh\n(.*?)```", text, re.S).group(1)
    return [args for line in block.replace("\\\n", " ").splitlines()
            if (args := shlex.split(line, comments=True))]


def test_readme_quick_start_runs_as_written(runner, tmp_path, monkeypatch):
    commands = quick_start_commands()
    assert [c[:2] for c in commands] == [
        ["dimasr", "prepare"], ["dimasr", "train"], ["dimasr", "predict"], ["dimasr", "evaluate"],
        ["dimasr", "llm-baseline"], ["dimasr", "evaluate"], ["dimasr", "compare"]]
    root = README.parent
    shutil.copytree(root / "configs", tmp_path / "configs")
    shutil.copytree(FIXTURES, tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        run_ok(runner, command[1:])
    table = json.loads((tmp_path / "cmp" / "comparison.json").read_text())["table"]
    assert set(table) == {"finetune", "llm"} and all(set(row) == {"tiny"} for row in table.values())
    # every manifest records the command's wall time, and its instances where it has them
    for command in commands:
        manifest = json.loads((tmp_path / command[command.index("--out") + 1] / "manifest.json")
                              .read_text())
        assert manifest["command"] == command[1] and manifest["seconds"] > 0.0
        assert ("instances" in manifest) == (command[1] not in ("train", "compare"))
    assert not list(tmp_path.rglob(".partial-*"))
