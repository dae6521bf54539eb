"""Acceptance gate: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is deferred to calibration.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from dimasr.cli import main as cli_main
from dimasr.data import VAPair, format_va_string, parse_va_string
from dimasr.llm import parse_llm_output, LlmParseError
from dimasr.metrics import per_instance_errors, rmse_per_dimension, rmse_va, va_heatmap
from dimasr.model import DimASRModel, TinyEncoder, load_checkpoint, save_checkpoint, scale_to_va
from dimasr.trainer import EarlyStopper, TrainConfig, evaluate_rmse, fit
from .conftest import FIXTURES, make_instances, random_pairs
from .test_model import head_gradient_check


def report(n, text):
    print(f"\ncriterion {n:2d}: PASS - {text}")


# -- independent oracles (plain python loops, no shared code paths) ----------

def oracle_rmse_va(preds, golds):
    total, count = 0.0, 0
    for p, g in zip(preds, golds):
        total += (p.valence - g.valence) ** 2 + (p.arousal - g.arousal) ** 2
        count += 1
    return math.sqrt(total / count)


def oracle_rmse_dim(preds, golds):
    sv = sum((p.valence - g.valence) ** 2 for p, g in zip(preds, golds))
    sa = sum((p.arousal - g.arousal) ** 2 for p, g in zip(preds, golds))
    return math.sqrt(sv / len(preds)), math.sqrt(sa / len(preds))


def oracle_errors(preds, golds):
    return [math.hypot(p.valence - g.valence, p.arousal - g.arousal)
            for p, g in zip(preds, golds)]


def oracle_cell(preds, golds, v_lo, v_hi, a_lo, a_hi, v_last, a_last):
    sq = []
    for p, g in zip(preds, golds):
        in_v = v_lo <= g.valence < v_hi or (v_last and g.valence == v_hi)
        in_a = a_lo <= g.arousal < a_hi or (a_last and g.arousal == a_hi)
        if in_v and in_a:
            sq.append((p.valence - g.valence) ** 2 + (p.arousal - g.arousal) ** 2)
    if not sq:
        return None, 0
    return math.sqrt(sum(sq) / len(sq)), len(sq)


def test_criterion_01_and_02_metric_oracles():
    rng = np.random.default_rng(20260823)
    edges = (1.0, 3.0, 5.0, 7.0, 9.0)
    start = time.time()
    for _ in range(500):
        n = int(rng.integers(1, 101))
        preds, golds = random_pairs(rng, n), random_pairs(rng, n)

        assert rmse_va(preds, golds) == pytest.approx(oracle_rmse_va(preds, golds), abs=1e-9)
        rv, ra = rmse_per_dimension(preds, golds)
        orv, ora = oracle_rmse_dim(preds, golds)
        assert rv == pytest.approx(orv, abs=1e-9) and ra == pytest.approx(ora, abs=1e-9)
        for got, want in zip(per_instance_errors(preds, golds), oracle_errors(preds, golds)):
            assert got == pytest.approx(want, abs=1e-9)

        grid = va_heatmap(preds, golds, edges, edges)
        assert sum(c["count"] for row in grid.cells for c in row) == n
        for i in range(4):
            for j in range(4):
                want_rmse, want_count = oracle_cell(
                    preds, golds, edges[i], edges[i + 1], edges[j], edges[j + 1],
                    v_last=(i == 3), a_last=(j == 3))
                cell = grid.cells[i][j]
                assert cell["count"] == want_count
                if want_count:
                    assert cell["rmse"] == pytest.approx(want_rmse, abs=1e-9)

        # criterion 2: algebraic identity on every set
        assert rv**2 + ra**2 == pytest.approx(rmse_va(preds, golds) ** 2, abs=1e-9)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, f"500 randomized sets match brute-force oracles within 1e-9 ({elapsed:.1f}s)")
    report(2, "rmse_v^2 + rmse_a^2 = rmse_va^2 within 1e-9 on all 500 sets")


def test_criterion_03_scaling_bounds_and_anchors():
    assert scale_to_va(0.0) == 5.0
    rng = np.random.default_rng(3)
    raws = np.concatenate([rng.normal(0, 10, size=9996), [-1e6, -40.0, 40.0, 1e6]])
    scaled = scale_to_va(raws)
    assert np.all(scaled > 1.0) and np.all(scaled < 9.0)
    for x in rng.normal(0, 5, size=200):
        assert scale_to_va(x) + scale_to_va(-x) == pytest.approx(10.0, abs=1e-9)
    report(3, "scale_to_va(0)=5.0, 10,000 raws map into (1,9), symmetric about 5")


def test_criterion_04_gradient_check():
    worst = max(head_gradient_check(8, seed) for seed in range(20))
    assert worst < 1e-4
    report(4, f"analytic vs central-difference head gradients, 20 draws, "
              f"worst relative error {worst:.2e} < 1e-4")


def test_criterion_05_overfit_smoke(sixteen_instances):
    model = DimASRModel(TinyEncoder(dim=32, seed=0), seed=42,
                        input_dropout_rate=0.0, head_dropout_rate=0.0)
    cfg = TrainConfig(batch_size=16, learning_rate=0.01, dropout=0.0,
                      max_epochs=200, patience=200, seed=42)
    start = time.time()
    model, history = fit(model, sixteen_instances, sixteen_instances, cfg)
    elapsed = time.time() - start
    final = evaluate_rmse(model, sixteen_instances)
    assert final < 0.5, f"train rmse_va {final}"
    assert len(history.records) <= 200
    assert elapsed < 60.0
    report(5, f"16-instance overfit reached train rmse_va {final:.3f} "
              f"in {len(history.records)} epochs, {elapsed:.1f}s")


def test_criterion_06_early_stopping_contract(sixteen_instances, tmp_path):
    # (a) injected validation sequences reproduce the counting rule exactly
    stopper = EarlyStopper(patience=3)
    stops = [stopper.update(v) for v in [1.0, 0.9, 0.95, 0.96, 0.97]]
    assert stops == [False, False, False, False, True]
    assert stopper.best_index == 2

    improving = EarlyStopper(patience=3)
    assert not any(improving.update(1.0 / (i + 1)) for i in range(10))

    # (b) best-epoch parameters are restored: outputs equal a checkpoint
    # saved at the best epoch
    model = DimASRModel(TinyEncoder(dim=32, seed=0), seed=42,
                        input_dropout_rate=0.0, head_dropout_rate=0.0)
    cfg = TrainConfig(batch_size=8, learning_rate=0.05, dropout=0.0,
                      max_epochs=8, patience=8, seed=42)

    def save_each(epoch, m, record):
        save_checkpoint(m, tmp_path / f"epoch{epoch}")

    model, history = fit(model, sixteen_instances, sixteen_instances, cfg,
                         epoch_callback=save_each)
    best = load_checkpoint(tmp_path / f"epoch{history.best_epoch}")
    np.testing.assert_array_equal(model.predict_raw(sixteen_instances),
                                  best.predict_raw(sixteen_instances))
    report(6, f"stop-after-epoch-5/best-epoch-2 reproduced; restored parameters "
              f"match the epoch-{history.best_epoch} checkpoint exactly")


def _pipeline_run(runner, root):
    root.mkdir()
    prepared = root / "prepared"
    res = runner.invoke(cli_main, ["prepare", "--train-file",
                                   str(FIXTURES / "tiny_dataset.jsonl"),
                                   "--seed", "42", "--out", str(prepared)])
    assert res.exit_code == 0, res.output
    cfg = root / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "encoder": {"type": "tiny", "dim": 32, "seed": 0},
        "data": {"fit": str(prepared / "train.jsonl"), "val": str(prepared / "eval.jsonl")},
        "train": {"learning_rate": 0.01, "dropout": 0.1, "max_epochs": 4,
                  "patience": 4, "seed": 42},
    }))
    run_dir = root / "run"
    res = runner.invoke(cli_main, ["train", "--config", str(cfg), "--out", str(run_dir)])
    assert res.exit_code == 0, res.output
    pred_dir = root / "pred"
    res = runner.invoke(cli_main, ["predict", "--checkpoint", str(run_dir / "checkpoint"),
                                   "--instances", str(prepared / "eval.jsonl"),
                                   "--out", str(pred_dir)])
    assert res.exit_code == 0, res.output
    return (pred_dir / "predictions.jsonl").read_bytes()


def test_criterion_07_pipeline_determinism(tmp_path):
    runner = CliRunner()
    first = _pipeline_run(runner, tmp_path / "run1")
    second = _pipeline_run(runner, tmp_path / "run2")
    assert first == second
    report(7, "two seed-42 prepare/train/predict runs produced byte-identical "
              "prediction files")


def test_criterion_08_format_round_trips():
    rng = np.random.default_rng(8)
    for v, a in rng.uniform(1.0, 9.0, size=(1000, 2)):
        rounded = VAPair(round(float(v), 2), round(float(a), 2))
        assert parse_va_string(format_va_string(rounded)) == rounded
    assert parse_llm_output("7.50#6.80") == VAPair(7.50, 6.80)
    assert parse_llm_output("The answer is 9.80#0.20.") == VAPair(9.0, 1.0)
    with pytest.raises(LlmParseError):
        parse_llm_output("I cannot determine this.")
    report(8, "1,000 random pairs survive format->parse at 2 decimals; "
              "the three canonical parse examples (incl. clipping) pass")


def test_criterion_09_split_protocols():
    from dimasr.data import merge_and_hold_out, split_dev_protocol

    instances = make_instances(100)
    dev_split = split_dev_protocol(instances, ratio=0.8, seed=42)
    train_ids = {i.sentence_id for i in dev_split.train}
    eval_ids = {i.sentence_id for i in dev_split.eval}
    assert not train_ids & eval_ids
    assert abs(len(train_ids) - 80) <= 1 and abs(len(eval_ids) - 20) <= 1
    again = split_dev_protocol(instances, ratio=0.8, seed=42)
    assert dev_split.train == again.train and dev_split.eval == again.eval

    train = make_instances(90, prefix="tr")
    dev = make_instances(10, prefix="de")
    merged = merge_and_hold_out(train, dev, holdout_fraction=0.1, seed=42)
    fit_ids = {i.sentence_id for i in merged.train}
    hold_ids = {i.sentence_id for i in merged.eval}
    assert not fit_ids & hold_ids
    assert abs(len(hold_ids) - 10) <= 1
    assert len(fit_ids) + len(hold_ids) == 100
    assert merge_and_hold_out(train, dev, holdout_fraction=0.1, seed=42).eval == merged.eval
    report(9, "80/20 and merge+10% holdout splits are sentence-disjoint, "
              "correctly sized (+/-1), and seed-deterministic")


def test_criterion_10_full_scale_configs_and_reference_values():
    configs = Path(__file__).resolve().parents[1] / "configs"
    datasets = ["eng_lap", "eng_res", "zho_lap", "zho_res", "zho_fin"]
    for name in datasets:
        cfg = yaml.safe_load((configs / f"{name}.yaml").read_text())
        assert cfg["encoder"]["type"] == "hf"
        assert cfg["encoder"]["name"] == "xlm-roberta-base"
        train = cfg["train"]
        assert (train["batch_size"], train["learning_rate"], train["warmup_ratio"],
                train["dropout"], train["max_epochs"], train["patience"],
                train["grad_clip_norm"], train["seed"], train["max_len"]) == (
            16, 2.0e-5, 0.10, 0.1, 10, 3, 1.0, 42, 256)
    reference = json.loads((configs / "reference_results.json").read_text())
    assert reference["tolerance_rmse_va"] == 0.05
    assert reference["test_rmse_va"] == {
        "eng_lap": 1.4562, "eng_res": 1.4861, "zho_lap": 0.7510,
        "zho_res": 0.9553, "zho_fin": 0.5391,
    }
    report(10, "full-scale configs for all five datasets ship with documented "
               "reference scores (+/-0.05, non-gating; not desk-reproducible)")


def test_criterion_11_llm_replay_and_comparison(tmp_path):
    runner = CliRunner()
    # replayed baseline, twice: deterministic, no network configured anywhere
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = runner.invoke(cli_main, [
            "llm-baseline", "--config", str(FIXTURES / "llm_config.yaml"),
            "--instances", str(FIXTURES / "llm_instances.jsonl"),
            "--replay", str(FIXTURES / "replay_transcript.jsonl"),
            "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs.append((out / "predictions.jsonl").read_bytes())
    assert outputs[0] == outputs[1]

    # score the replayed predictions and a second method, then compare
    gold = tmp_path / "gold.jsonl"
    lines = []
    for line in (FIXTURES / "llm_instances.jsonl").read_text().strip().split("\n"):
        obj = json.loads(line)
        lines.append(json.dumps({"id": obj["id"], "text": obj["text"],
                                 "aspects": [{"aspect": obj["aspect"], "va": obj["va"]}]}))
    gold.write_text("\n".join(lines) + "\n")

    reports = []
    for method, pred in (("llm_replay", tmp_path / "a" / "predictions.jsonl"),
                         ("midpoint", None)):
        if pred is None:
            pred = tmp_path / "midpoint.jsonl"
            pred.write_text("\n".join(
                json.dumps({"id": json.loads(l)["id"], "aspect": json.loads(l)["aspects"][0]["aspect"],
                            "aspect_index": 0, "va": "5.00#5.00"})
                for l in lines) + "\n")
        out = tmp_path / f"eval_{method}"
        res = runner.invoke(cli_main, ["evaluate", "--gold", str(gold), "--pred", str(pred),
                                       "--method", method, "--dataset", "replay_fixture",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        reports.append(str(out / "report.json"))

    cmp_dir = tmp_path / "cmp"
    res = runner.invoke(cli_main, ["compare", *reports, "--out", str(cmp_dir)])
    assert res.exit_code == 0, res.output
    tsv = (cmp_dir / "comparison.tsv").read_text()
    assert tsv.splitlines()[0] == "method\treplay_fixture"
    assert "llm_replay" in tsv and "midpoint" in tsv
    assert tsv.count("*") == 1  # exactly one best per dataset column
    report(11, "replay fixture yields a deterministic prediction file and a "
               "methods-by-datasets comparison table with zero live calls")
