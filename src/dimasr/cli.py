"""Command-line entry point: prepare | train | predict | evaluate | llm-baseline | compare.

Every command writes a manifest.json into its output directory recording the
command, resolved configuration, input/output paths, seed, timestamp, and
output checksums, so any artifact can be traced back to the run that made it.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import hashlib
import math
import sys
import time
from pathlib import Path

import click
import yaml

from . import data as data_mod
from . import llm as llm_mod
from . import metrics as metrics_mod
from . import trainer as trainer_mod
from .data import ConfigError, DataError
from .metrics import MetricsError
from .model import DimASRModel, ModelError, load_checkpoint, make_encoder, save_checkpoint
from .trainer import TrainConfig, TrainerError

click.UsageError.exit_code = 1


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, inputs: list, outputs: list, seed,
                   **traffic) -> None:
    """Write manifest.json; `traffic` (instances, seconds) is added as is."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "checksums": {Path(p).name: _sha256(Path(p)) for p in outputs if Path(p).is_file()},
        **traffic,
    }
    data_mod.write_json(out_dir / "manifest.json", manifest)


def _out_dir(out) -> Path:
    """A command's --out directory, made with its parents if missing."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # also a regular file on the path
        raise ConfigError(f"cannot make --out directory {out}: {exc.strerror}") from None
    return out_dir


def _load_yaml(path, keys: dict) -> dict:
    """A config file's top level, closed to the keys in `keys` and typed by them."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            obj = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})")
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    unknown = sorted(str(k) for k in set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown top-level settings: {', '.join(unknown)}")
    for key, value in obj.items():
        if isinstance(value, bool) or not isinstance(value, keys[key]):
            raise ConfigError(f"{path}: {key} must be {data_mod.KINDS[keys[key]]}, got {value!r}")
    return obj


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(1)
        except (DataError, MetricsError) as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(2)
        except (TrainerError, ModelError, llm_mod.LlmError, RuntimeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


@click.group()
def main():
    """Dimensional aspect sentiment regression pipeline."""


@main.command()
@click.option("--train-file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dev-file", type=click.Path(exists=True, dir_okay=False),
              help="Required for submission mode.")
@click.option("--format", "fmt", default="simple_jsonl", type=click.Choice(data_mod.FORMATS))
@click.option("--mode", default="dev", type=click.Choice(["dev", "submission"]),
              help="dev: 80/20 split of the train file; submission: merge train+dev, hold out 10%.")
@click.option("--ratio", default=0.8, show_default=True)
@click.option("--holdout", default=0.1, show_default=True)
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def prepare(train_file, dev_file, fmt, mode, ratio, holdout, seed, out):
    """Expand sentences into instances and write the chosen split."""
    for name, value in (("ratio", ratio), ("holdout", holdout)):  # both reach the manifest
        if not 0.0 < value < 1.0:
            raise ConfigError(f"--{name} must be in (0, 1), got {value}")
    if mode == "submission" and dev_file is None:
        raise ConfigError("submission mode requires --dev-file")
    train_instances = data_mod.parse_dataset(train_file, format=fmt)
    inputs = [train_file]

    if mode == "dev":
        split = data_mod.split_dev_protocol(train_instances, ratio=ratio, seed=seed)
        names = ("train.jsonl", "eval.jsonl")
    else:
        dev_instances = data_mod.parse_dataset(dev_file, format=fmt)
        inputs.append(dev_file)
        split = data_mod.merge_and_hold_out(train_instances, dev_instances,
                                            holdout_fraction=holdout, seed=seed)
        names = ("fit.jsonl", "holdout.jsonl")

    out_dir = _out_dir(out)
    outputs = []
    for name, part in zip(names, (split.train, split.eval)):
        path = out_dir / name
        data_mod.write_instances(part, path)
        outputs.append(path)

    for name, part in zip(names, (split.train, split.eval)):
        sentences = len({i.sentence_id for i in part})
        click.echo(f"{name}: {sentences} sentences, {len(part)} instances")
    write_manifest(out_dir, "prepare",
                   {"format": fmt, "mode": mode, "ratio": ratio, "holdout": holdout},
                   inputs, outputs, seed)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def train(config_path, seed, out):
    """Fine-tune one model per the config; writes checkpoint + history."""
    cfg = _load_yaml(config_path, {"name": str, "encoder": dict, "data": dict, "train": dict})
    overrides = dict(cfg.get("train", {}))
    if seed is not None:
        overrides["seed"] = seed
    train_cfg = TrainConfig.from_mapping(overrides)
    # the encoder's max_len defaults to the train section's
    encoder = make_encoder({"max_len": train_cfg.max_len, **cfg.get("encoder", {})})
    model = DimASRModel(encoder, seed=train_cfg.seed, input_dropout_rate=train_cfg.dropout,
                        head_dropout_rate=train_cfg.dropout,
                        head_internal_dropout=train_cfg.head_internal_dropout)

    data_cfg = cfg.get("data", {})
    if set(data_cfg) != {"fit", "val"} or not all(isinstance(p, str) and Path(p).is_file()
                                                  for p in data_cfg.values()):
        raise ConfigError("config must name data.fit and data.val instance files, and no other "
                          f"data setting (validation set required), got {data_cfg}")
    fit_set = data_mod.read_instances(data_cfg["fit"])
    val_set = data_mod.read_instances(data_cfg["val"])
    data_mod.check_disjoint(fit_set, val_set, f"{data_cfg['fit']} (data.fit) and "
                                              f"{data_cfg['val']} (data.val)")

    resolved = dataclasses.asdict(train_cfg)
    click.echo("resolved hyperparameters:")
    for key, value in resolved.items():
        click.echo(f"  {key}: {value}")

    model, history = trainer_mod.fit(model, fit_set, val_set, train_cfg)

    out_dir = _out_dir(out)
    ckpt_dir = out_dir / "checkpoint"
    save_checkpoint(model, ckpt_dir)
    history_path = out_dir / "history.json"
    history_json = dataclasses.asdict(history)
    data_mod.write_json(history_path, history_json)
    tsv_path = out_dir / "history.tsv"
    columns = [f.name for f in dataclasses.fields(trainer_mod.EpochRecord)]
    with tsv_path.open("w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in history_json["records"]:
            fh.write("\t".join(f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c])
                               for c in columns) + "\n")

    click.echo(f"best epoch: {history.best_epoch} "
               f"(val rmse_va {history.records[history.best_epoch - 1].val_rmse_va:.4f})")
    write_manifest(out_dir, "train", {"config_file": str(config_path), **resolved},
                   [config_path, data_cfg["fit"], data_cfg["val"]],
                   [history_path, tsv_path, ckpt_dir / "params.npz", ckpt_dir / "manifest.json"],
                   train_cfg.seed)


@main.command()
@click.option("--checkpoint", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--instances", "instances_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def predict(checkpoint, instances_path, out):
    """Eval-mode predictions for an instance file; writes predictions.jsonl."""
    start = time.perf_counter()
    model = load_checkpoint(checkpoint)
    instances = data_mod.read_instances(instances_path)
    pairs = model.predict_pairs(instances) if instances else []
    out_dir = _out_dir(out)
    pred_path = out_dir / "predictions.jsonl"
    data_mod.write_predictions(instances, pairs, pred_path)
    click.echo(f"wrote {len(pairs)} predictions to {pred_path}")
    write_manifest(out_dir, "predict", {"checkpoint": str(checkpoint)},
                   [checkpoint, instances_path], [pred_path], model.seed,
                   instances=len(instances), seconds=time.perf_counter() - start)


def _parse_edges(text: str):
    try:
        edges = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse bin edges {text!r}")
    for edge in edges:
        if not math.isfinite(edge):
            raise ConfigError(f"bin edges must be finite, got {edge} in {text!r}")
    if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ConfigError(f"bin edges must be two or more, strictly ascending, got {text!r}")
    return edges


@main.command()
@click.option("--gold", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--pred", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--gold-format", default="simple_jsonl", type=click.Choice(data_mod.GOLD_FORMATS),
              help="A dataset format, or 'instances' for an instance file from prepare.")
@click.option("--edges", default="1,3,5,7,9", show_default=True,
              help="Heatmap bin edges (used on both axes).")
@click.option("--method", default="model", show_default=True)
@click.option("--dataset", default="dataset", show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def evaluate(gold, pred, gold_format, edges, method, dataset, out):
    """Score a prediction file against gold and write the full report."""
    start = time.perf_counter()
    edge_list = _parse_edges(edges)
    report = metrics_mod.score_files(gold, pred, gold_format=gold_format, edges=edge_list)
    grid = report.heatmap

    out_dir = _out_dir(out)
    report_path = out_dir / "report.json"
    # the report's fields, its heatmap last, as report.json's keys
    data_mod.write_json(report_path, {
        "method": method, "dataset": dataset, **dataclasses.asdict(report),
        "heatmap_note": "bin edges are configurable; defaults give a 4x4 grid"})
    text_path = out_dir / "report.txt"
    lines = [
        f"method: {method}  dataset: {dataset}  n={report.n}",
        f"rmse_va={report.rmse_va:.4f}  rmse_v={report.rmse_v:.4f}  rmse_a={report.rmse_a:.4f}",
        f"error median={report.error_median:.4f}  "
        f"%<1.0={100 * report.frac_below_1:.1f}  %>2.0={100 * report.frac_above_2:.1f}",
        "heatmap (rows: valence bins, cols: arousal bins; rmse/count):",
    ]
    for i, row in enumerate(grid.cells):
        cells = []
        for cell in row:
            rmse = "-" if cell["rmse"] is None else f"{cell['rmse']:.2f}"
            cells.append(f"{rmse}/{cell['count']}")
        lines.append(f"  v[{grid.v_edges[i]:g},{grid.v_edges[i + 1]:g}): " + "  ".join(cells))
    text_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo("\n".join(lines))
    write_manifest(out_dir, "evaluate", {"edges": list(edge_list), "gold_format": gold_format},
                   [gold, pred], [report_path, text_path], None,
                   instances=report.n, seconds=time.perf_counter() - start)


@main.command("llm-baseline")
@click.option("--config", "config_path", required=True, type=click.Path(dir_okay=False))
@click.option("--instances", "instances_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--replay", type=click.Path(exists=True, dir_okay=False),
              help="Transcript file to replay instead of live API calls.")
@click.option("--exemplar-pool", type=click.Path(exists=True, dir_okay=False),
              help="Instance file to sample exemplars from (default: built-in set).")
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def llm_baseline(config_path, instances_path, replay, exemplar_pool, seed, out):
    """Run the few-shot prompting baseline (live or replayed)."""
    cfg = _load_yaml(config_path, {"llm": dict, "n_exemplars": int})
    run_cfg = data_mod.from_mapping(llm_mod.LlmRunConfig, cfg.get("llm", {}), "llm")
    k = cfg.get("n_exemplars", 6)
    if k < 1:
        raise ConfigError(f"n_exemplars must be >= 1, got {k}")
    instances = data_mod.read_instances(instances_path)

    exemplars = llm_mod.DEFAULT_EXEMPLARS
    if exemplar_pool is not None:
        pool = data_mod.read_instances(exemplar_pool)
        exemplars = llm_mod.sample_exemplars(pool, k=k, seed=seed)

    if replay is not None:
        transport = llm_mod.ReplayTransport(replay)
        missing = [k for k in map(llm_mod.instance_key, instances) if k not in transport.responses]
        if missing:
            raise DataError(f"{replay}: no record for instances {missing[:5]}")
    else:
        transport = llm_mod.HttpChatTransport(run_cfg)

    out_dir = _out_dir(out)
    transcript_path = out_dir / "transcript.jsonl"
    pairs, log = llm_mod.run_baseline(instances, run_cfg, transport,
                                      exemplars=exemplars, transcript_out=transcript_path)
    pred_path = out_dir / "predictions.jsonl"
    data_mod.write_predictions(instances, pairs, pred_path)
    n_fallback = sum(1 for r in log if r["status"] != "ok")
    click.echo(f"wrote {len(pairs)} predictions ({n_fallback} fallbacks) to {pred_path}")
    write_manifest(out_dir, "llm-baseline",
                   {"config_file": str(config_path), "replay": bool(replay),
                    "model": run_cfg.model, "temperature": run_cfg.temperature},
                   [config_path, instances_path] + ([replay] if replay else []),
                   [pred_path, transcript_path, out_dir / data_mod.PROMPT_FILE], seed)


def _read_report(path) -> dict:
    """One `dimasr evaluate` report.json, with the fields compare reads."""
    obj = data_mod.read_json(path)
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    for name, kind, what in (("method", str, "string"), ("dataset", str, "string"),
                             ("rmse_va", (int, float), "number")):
        value = obj.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DataError(f"{path}: field {name!r} must be a {what}, got {value!r}")
    if not 0 <= obj["rmse_va"] <= sys.float_info.max:  # false for NaN
        raise DataError(f"{path}: field 'rmse_va' must be finite and >= 0, got {obj['rmse_va']!r}")
    return obj


@main.command()
@click.argument("reports", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def compare(reports, out):
    """Side-by-side table of evaluation reports: rows=methods, cols=datasets."""
    table, sources = {}, {}
    datasets = None
    for path in reports:
        obj = _read_report(path)
        cell = (obj["method"], obj["dataset"])
        if cell in sources:
            raise DataError(f"{sources[cell]} and {path} repeat (method, dataset) {cell}")
        sources[cell] = path
        table.setdefault(obj["method"], {})[obj["dataset"]] = obj["rmse_va"]
    for method, row in table.items():
        cols = set(row)
        if datasets is None:
            datasets = cols
        elif cols != datasets:
            raise MetricsError(
                f"method {method!r} covers datasets {sorted(cols)}, "
                f"expected {sorted(datasets)}"
            )
    dataset_names = sorted(datasets)
    best = {d: min(row[d] for row in table.values()) for d in dataset_names}

    lines = ["method\t" + "\t".join(dataset_names)]
    for method in sorted(table):
        cells = []
        for d in dataset_names:
            value = table[method][d]
            mark = "*" if value == best[d] else ""
            cells.append(f"{value:.4f}{mark}")
        lines.append(method + "\t" + "\t".join(cells))
    text = "\n".join(lines) + "\n"

    out_dir = _out_dir(out)
    table_path = out_dir / "comparison.tsv"
    table_path.write_text(text, encoding="utf-8")
    json_path = out_dir / "comparison.json"
    data_mod.write_json(json_path, {"table": table, "best": best})
    click.echo(text, nl=False)
    write_manifest(out_dir, "compare", {}, list(reports), [table_path, json_path], None)


if __name__ == "__main__":
    main()
