#!/usr/bin/env python3
"""dimasr benchmark: pipeline and training throughput, with a per-module trace.

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is imported from ``src/`` next to
this directory. Each run generates its corpus from ``--seed`` (set-up), then
runs whole pipeline rounds (see stages.py) until ``--seconds`` would be
exceeded, checking every stage's outputs. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` (stage invocations) and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics, each
the median over the run's rounds; with ``--trace 1`` untraced and traced
rounds alternate and the metrics are the per-layer ones, per traced round,
plus the tracing overhead. See README.md in this directory for definitions.

Exit codes: 0 when every check passed, 1 when a stage or check failed, 2 when
the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
HASH_SEED = "0"

# the smoke config's encoder and training settings (configs/smoke.yaml)
SMOKE_ENCODER = {"dim": 32, "vocab_size": 4096, "max_len": 256, "seed": 0}
SMOKE_TRAIN = {"batch_size": 16, "learning_rate": 0.01, "dropout": 0.0,
               "max_epochs": 5, "patience": 5, "seed": 42}
# the train: section of configs/eng_lap.yaml, verbatim
ENG_LAP_TRAIN = {"batch_size": 16, "learning_rate": 2.0e-5, "weight_decay": 0.01,
                 "warmup_ratio": 0.10, "dropout": 0.1, "max_epochs": 10, "patience": 3,
                 "grad_clip_norm": 1.0, "seed": 42, "max_len": 256}

# Why each workload exists is in README.md. Sizes are sentences per corpus
# file; `ratio` is prepare's dev split, the share of sentences that are fit,
# chosen so that the validation set is large enough for its RMSE to be steady
# across seeds while the fit set keeps training short.
WORKLOADS = {
    # dense AdamW, clipping and gradient allocation over a 4.2M-float table
    "train-wide": {
        "train_sentences": 600, "ratio": 0.08, "test_sentences": 300, "frozen": False,
        "encoder": {"dim": 256, "vocab_size": 16384, "max_len": 256, "seed": 0},
        "train": dict(SMOKE_TRAIN, max_epochs=2, patience=2),
    },
    # heads-only training behind a frozen 768-wide encoder, paper config
    "train-frozen": {
        "train_sentences": 600, "ratio": 0.1, "test_sentences": 300, "frozen": True,
        "encoder": {"dim": 768, "vocab_size": 4096, "max_len": 256, "seed": 0},
        "train": ENG_LAP_TRAIN,
    },
    # little training: file io, scoring, prompting and hashing dominate
    "pipeline": {
        "train_sentences": 1500, "ratio": 0.6, "test_sentences": 5000, "frozen": False,
        "encoder": SMOKE_ENCODER,
        "train": dict(SMOKE_TRAIN, max_epochs=1, patience=1),
    },
}
SMOKE_SIZES = {"train_sentences": 30, "test_sentences": 20}


def _pin_blas_threads() -> int:
    """One BLAS thread, unless set already; must run before numpy loads.

    The run then keeps to one core: with a BLAS thread per core, idle
    OpenBLAS threads spin on the other cores (user time ran at 1.5 times
    wall time on two cores), competing with whatever else the host runs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    return int(os.environ["OPENBLAS_NUM_THREADS"])


@dataclass
class Setup:
    corpus: object
    model: object  # untrained model; each round trains a deep copy
    train_config: object
    predict_checkpoint: Path
    split_ratio: float


def build_setup(spec, seed, out_dir):
    """Import the program afresh, generate the corpus and construct the models
    a run needs: one set-up, as `setup_s` times it."""
    import corpus

    # stages binds dimasr's modules at import, so it goes too
    for name in [m for m in sys.modules if m in ("dimasr", "stages") or m.startswith("dimasr.")]:
        del sys.modules[name]
    importlib.import_module("dimasr.cli")  # imports every module of the package
    from dimasr import model, trainer

    files = corpus.generate(out_dir / "corpus", seed, spec["train_sentences"], spec["test_sentences"])
    config = trainer.TrainConfig.from_mapping(spec["train"])
    encoder = (_frozen_encoder_class() if spec["frozen"] else model.TinyEncoder)(**spec["encoder"])
    # the model `dimasr train` would build for this config around this encoder
    net = model.DimASRModel(encoder, seed=config.seed, input_dropout_rate=config.dropout,
                            head_dropout_rate=config.dropout,
                            head_internal_dropout=config.head_internal_dropout)
    # the fixed seeded checkpoint every round's predict stage loads
    fixed = model.DimASRModel(model.TinyEncoder(**SMOKE_ENCODER), seed=42,
                              input_dropout_rate=0.0, head_dropout_rate=0.0)
    model.save_checkpoint(fixed, out_dir / "predict_checkpoint")
    return Setup(files, net, config, out_dir / "predict_checkpoint", spec["ratio"])


def _frozen_encoder_class():
    from dimasr.model import TinyEncoder

    class FrozenEncoder(TinyEncoder):
        """Stand-in for a frozen pretrained backbone, with HFEncoder's contract:
        no trainable parameters and a backward pass that does nothing."""

        def parameters(self) -> dict:
            return {}

        def backward(self, dH, cache, grads) -> None:
            pass

        def spec(self) -> dict:
            return dict(super().spec(), type="frozen-stand-in")

    return FrozenEncoder


def environment(blas_threads) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def end_to_end_metrics(rounds, setup_s):
    """Rates from the median invocation of each stage over the run's rounds."""
    import stages

    rate = functools.partial(stages.stage_rate, rounds)
    return {
        "setup_s": (setup_s, "s"),
        "train_inst_per_s": (rate("train"), "inst/s"),
        "best_val_rmse_va": (rounds[0].best_val_rmse_va, "RMSE"),
        "prepare_inst_per_s": (rate("prepare"), "inst/s"),
        "predict_inst_per_s": (rate("predict"), "inst/s"),
        "evaluate_inst_per_s": (rate("evaluate"), "inst/s"),
        "llm_inst_per_s": (rate("llm-baseline"), "inst/s"),
        "pipeline_inst_per_s": (stages.pass_rate(rounds), "inst/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYERS = ("data", "model", "trainer", "kernels", "metrics", "llm", "cli")


def per_layer_metrics(tracer, traced, untraced, ops):
    """Per-layer metrics per traced round, from the tracer's spans and counters."""
    import stages

    n = len(traced)
    calls, total, own, c = tracer.calls, tracer.total, tracer.self_time, tracer.counters

    def per(value):
        return value / n

    steps = sorted(tracer.step_ms)
    deciles = statistics.quantiles(steps, n=10, method="inclusive") if len(steps) > 1 else steps * 9
    transport = calls["llm.transport"]
    wall_t = stages.pass_seconds(traced)
    wall_u = stages.pass_seconds(untraced)
    layers = tracer.layer_self_seconds()  # sums to the traced stages' wall time
    m = {
        "trainer.steps": (per(calls["trainer.adamw"]), "count"),
        "trainer.epochs": (per(sum(r.epochs for r in traced)), "count"),
        "trainer.step_ms.p50": (deciles[4] if steps else 0.0, "ms"),
        "trainer.step_ms.p90": (deciles[8] if steps else 0.0, "ms"),
        "trainer.adamw_s": (per(total["trainer.adamw"]), "s"),
        "trainer.clip_s": (per(total["trainer.clip"]), "s"),
        "trainer.clipped_frac": (c["trainer.clipped"] / max(c["trainer.clip_calls"], 1), "ratio"),
        "trainer.eval_s": (per(total["trainer.eval"]), "s"),
        "trainer.eval_instances": (per(c["trainer.eval_instances"]), "count"),
        "trainer.fit_self_s": (per(own["trainer.fit"]), "s"),
        "kernels.adamw_update_calls": (per(calls["kernels.adamw_update"]), "count"),
        "kernels.adamw_update_s": (per(total["kernels.adamw_update"]), "s"),
        "kernels.adamw_bytes": (per(c["kernels.adamw_bytes"]), "B"),
        "kernels.head_forward_calls": (per(calls["kernels.head_forward"]), "count"),
        "kernels.head_forward_s": (per(total["kernels.head_forward"]), "s"),
        "kernels.head_backward_calls": (per(calls["kernels.head_backward"]), "count"),
        "kernels.global_grad_norm_s": (per(total["kernels.global_grad_norm"]), "s"),
        "kernels.sigmoid_s": (per(total["kernels.sigmoid"]), "s"),
        "model.build_input_calls": (per(calls["model.build_input"]), "count"),
        "model.build_input_s": (per(total["model.build_input"]), "s"),
        "model.encode_fwd_instances": (per(c["model.encode_fwd_instances"]), "count"),
        "model.encode_fwd_s": (per(total["model.encode_fwd"]), "s"),
        "model.encode_bwd_s": (per(total["model.encode_bwd"]), "s"),
        "model.head_fwd_s": (per(total["model.head_fwd"]), "s"),
        "model.head_bwd_s": (per(total["model.head_bwd"]), "s"),
        "model.loss_and_grads_self_s": (per(own["model.loss_and_grads"]), "s"),
        "model.predict_s": (per(total["model.predict"]), "s"),
        "model.save_checkpoint_s": (per(total["model.save_checkpoint"]), "s"),
        "model.load_checkpoint_s": (per(total["model.load_checkpoint"]), "s"),
        "data.parse_dataset_calls": (per(calls["data.parse_dataset"]), "count"),
        "data.parse_dataset_s": (per(total["data.parse_dataset"]), "s"),
        "data.read_instances_s": (per(total["data.read_instances"]), "s"),
        "data.write_instances_s": (per(total["data.write_instances"]), "s"),
        "data.read_predictions_calls": (per(calls["data.read_predictions"]), "count"),
        "data.read_predictions_s": (per(total["data.read_predictions"]), "s"),
        "data.write_predictions_s": (per(total["data.write_predictions"]), "s"),
        "data.split_s": (per(total["data.split"]), "s"),
        "metrics.score_files_s": (per(total["metrics.score_files"]), "s"),
        "metrics.paired_from_files_s": (per(total["metrics.paired_from_files"]), "s"),
        "metrics.va_heatmap_s": (per(total["metrics.va_heatmap"]), "s"),
        "llm.replay_load_s": (per(total["llm.replay_load"]), "s"),
        "llm.build_prompt_s": (per(total["llm.build_prompt"]), "s"),
        "llm.transport_calls": (per(transport), "count"),
        "llm.transport_s": (per(total["llm.transport"]), "s"),
        "llm.parse_s": (per(total["llm.parse"]), "s"),
        "llm.retries": (per(transport - c["llm.instances"]), "count"),
        "llm.fallbacks": (per(c["llm.fallbacks"]), "count"),
        "llm.ok_per_attempt": ((c["llm.instances"] - c["llm.fallbacks"]) / max(transport, 1), "ratio"),
        "llm.transcript_bytes": (per(sum(r.transcript_bytes for r in traced)), "B"),
        "llm.run_baseline_self_s": (per(own["llm.run_baseline"]), "s"),
        "cli.prepare_s": (per(total["cli.prepare"]), "s"),
        "cli.predict_s": (per(total["cli.predict"]), "s"),
        "cli.evaluate_s": (per(total["cli.evaluate"]), "s"),
        "cli.llm-baseline_s": (per(total["cli.llm-baseline"]), "s"),
        "cli.compare_s": (per(total["cli.compare"]), "s"),
        "cli.write_manifest_s": (per(total["cli.write_manifest"]), "s"),
        "cli.manifest_bytes_hashed": (per(c["cli.manifest_bytes_hashed"]), "B"),
        "ops_failed_frac": (ops.failed / max(ops.attempted, 1), "ratio"),
        "trace.overhead_frac": (wall_t / wall_u - 1.0, "ratio"),
        "trace.attributed_frac": (sum(layers[x] for x in LAYERS) / sum(layers.values()), "ratio"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (per(layers[layer]), "s")
    return m


def stage_breakdown(tracer, n):
    """Human-readable tables, per traced round: each stage's wall time split
    into the self time of the layers under it, then self time per span."""
    lines = ["# traced stage wall time (s) = sum of layer self times:"]
    for stage in sorted({stage for stage, _ in tracer.stage_self}):
        parts = {layer: v for (st, layer), v in tracer.stage_self.items() if st == stage}
        lines.append(f"#   {stage:18s} {tracer.total[stage] / n:9.4f} = " + " + ".join(
            f"{layer} {v / n:.4f}" for layer, v in sorted(parts.items(), key=lambda kv: -kv[1])))
    lines.append("# traced self time (s) and calls, per round:")
    for name, value in sorted(tracer.self_time.items(), key=lambda kv: -kv[1]):
        lines.append(f"#   {name:32s} {value / n:10.4f}  {tracer.calls[name] / n:10.0f}")
    if tracer.absent:
        lines.append(f"# absent trace targets: {', '.join(tracer.absent)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest corpus, for the benchmark's own test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dimasr" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing ({src / 'dimasr'})", file=sys.stderr)
        return 2

    blas_threads = _pin_blas_threads()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import click  # noqa: F401  third-party imports are the environment, not set-up
    import numpy  # noqa: F401
    import yaml  # noqa: F401

    spec = dict(WORKLOADS[args.workload])
    if args.size == "smoke":
        spec.update(SMOKE_SIZES)

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    # compile the program from source on every import, whether or not a
    # __pycache__ exists, so that every set-up does the same work
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(work / "no-pycache")
    try:
        builds = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup = build_setup(spec, args.seed, work / f"setup{i}")
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(builds)
        # bound to the modules of the last set-up, which the rounds use
        import stages
        import tracing

        ops = stages.Ops()
        tracer = tracing.Tracer() if args.trace else None
        traced, untraced = [], []
        walls = []
        t_begin = time.perf_counter()
        k = 0
        while True:
            use_tracer = tracer is not None and k % 2 == 1
            # a dimasr command normally runs in a fresh process: keep the
            # benchmark's own objects out of the program's garbage collections
            gc.collect()
            gc.freeze()
            t0 = time.perf_counter()
            rdir = work / f"round{k}"
            try:
                result = stages.run_round(setup, rdir, ops, tracer if use_tracer else None, run_id=k)
            except stages.StageFailed as exc:
                ops.errors.append(str(exc))
                break
            finally:
                shutil.rmtree(rdir, ignore_errors=True)
            (traced if use_tracer else untraced).append(result)
            print(f"# round {k}{' traced' if use_tracer else ''} (median s x invocations): " + " ".join(
                f"{stage}={statistics.median(ts):.4f}x{len(ts)}" for stage, ts in result.times.items()))
            walls.append(time.perf_counter() - t0)
            k += 1
            enough = k >= (2 if tracer is not None else 1)
            if enough and time.perf_counter() - t_begin + max(walls[-2:]) > args.seconds:
                break
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    rounds = untraced + traced
    if rounds:
        first = (rounds[0].best_val_rmse_va, rounds[0].report_rmse)
        for r in rounds[1:]:
            if (r.best_val_rmse_va, r.report_rmse) != first:
                ops.failed += 1
                ops.errors.append(f"round results differ: {first} vs "
                                  f"{(r.best_val_rmse_va, r.report_rmse)}")
    correct = ops.failed == 0 and bool(untraced) and (tracer is None or bool(traced))

    print("# env " + json.dumps(environment(blas_threads)))
    print(f"# workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced rounds, setup builds {[round(b, 4) for b in builds]} s")
    for err in ops.errors:
        print(f"# FAILED: {err}")
    metrics = {}
    if correct and tracer is None:
        metrics = end_to_end_metrics(untraced, setup_s)
    elif correct:
        metrics = per_layer_metrics(tracer, traced, untraced, ops)
        print(stage_breakdown(tracer, len(traced)))
        tracer.dump(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    for name, (value, unit) in metrics.items():
        print(f"# {name:34s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Python randomizes string hashes per process unless PYTHONHASHSEED is
    # set, and the dict and set layouts that follow spread the pure-Python
    # stages' rates over up to a third between runs of one seed: every run
    # re-executes itself (same process, no child) with one fixed hash seed
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    sys.exit(main())
