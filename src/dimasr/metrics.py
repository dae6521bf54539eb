"""Evaluation: joint VA RMSE, per-dimension RMSE, error distribution, heatmap.

The headline metric is the joint RMSE over both dimensions:

    rmse_va = sqrt( (1/N) * sum_i [ (Vp_i - Vg_i)^2 + (Ap_i - Ag_i)^2 ] )

which satisfies rmse_va^2 = rmse_v^2 + rmse_a^2 by construction. The heatmap
bins instances by their GOLD coordinates (left-closed bins, last bin closed
at 9.0) and reports per-cell joint RMSE plus sample count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import FORMATS, VAPair, parse_dataset, read_instances, read_predictions


class MetricsError(ValueError):
    pass


DEFAULT_EDGES = (1.0, 3.0, 5.0, 7.0, 9.0)
# a gold file is a dataset file, or an instance file as `dimasr prepare` writes
GOLD_FORMATS = FORMATS + ("instances",)


@dataclass
class EvalReport:
    rmse_va: float
    rmse_v: float
    rmse_a: float
    n: int
    error_median: float
    frac_below_1: float
    frac_above_2: float
    heatmap: Optional[HeatmapGrid] = None  # set by score_files


@dataclass
class HeatmapGrid:
    v_edges: tuple
    a_edges: tuple
    # cells[i][j] covers v bin i, a bin j: {"rmse": float|None, "count": int}
    cells: list = field(default_factory=list)


def _as_arrays(preds: Sequence[VAPair], golds: Sequence[VAPair]):
    if len(preds) != len(golds):
        raise MetricsError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    if not preds:
        raise MetricsError("empty instance set")
    p = np.array([(x.valence, x.arousal) for x in preds])
    g = np.array([(x.valence, x.arousal) for x in golds])
    return p, g


def rmse_va(preds: Sequence[VAPair], golds: Sequence[VAPair]) -> float:
    p, g = _as_arrays(preds, golds)
    return float(np.sqrt(np.mean(np.sum((p - g) ** 2, axis=1))))


def rmse_per_dimension(preds: Sequence[VAPair], golds: Sequence[VAPair]):
    p, g = _as_arrays(preds, golds)
    rv = float(np.sqrt(np.mean((p[:, 0] - g[:, 0]) ** 2)))
    ra = float(np.sqrt(np.mean((p[:, 1] - g[:, 1]) ** 2)))
    return rv, ra


def per_instance_errors(preds: Sequence[VAPair], golds: Sequence[VAPair]) -> list:
    """Euclidean distance between predicted and gold VA points, order preserved."""
    p, g = _as_arrays(preds, golds)
    return [float(e) for e in np.sqrt(np.sum((p - g) ** 2, axis=1))]


def error_distribution(errors: Sequence[float]):
    """(median, fraction strictly below 1.0, fraction strictly above 2.0)."""
    if len(errors) == 0:
        raise MetricsError("empty error list")
    e = np.asarray(errors, dtype=np.float64)
    median = float(np.median(e))  # midpoint of central pair for even N
    return median, float(np.mean(e < 1.0)), float(np.mean(e > 2.0))


def va_heatmap(preds, golds, v_edges=DEFAULT_EDGES, a_edges=DEFAULT_EDGES) -> HeatmapGrid:
    for edges in (v_edges, a_edges):
        if len(edges) < 2 or any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
            raise MetricsError(f"bin edges must be strictly ascending, got {edges}")
    p, g = _as_arrays(preds, golds)
    sq = np.sum((p - g) ** 2, axis=1)
    # left-closed right-open bins; values at or past the last edge go to the last bin
    vi = np.clip(np.searchsorted(v_edges, g[:, 0], side="right") - 1, 0, len(v_edges) - 2)
    ai = np.clip(np.searchsorted(a_edges, g[:, 1], side="right") - 1, 0, len(a_edges) - 2)
    cells = []
    for i in range(len(v_edges) - 1):
        row = []
        for j in range(len(a_edges) - 1):
            members = sq[(vi == i) & (ai == j)]
            rmse = float(np.sqrt(np.mean(members))) if members.size else None
            row.append({"rmse": rmse, "count": int(members.size)})
        cells.append(row)
    return HeatmapGrid(tuple(v_edges), tuple(a_edges), cells)


def full_report(preds: Sequence[VAPair], golds: Sequence[VAPair]) -> EvalReport:
    rv, ra = rmse_per_dimension(preds, golds)
    errors = per_instance_errors(preds, golds)
    median, below, above = error_distribution(errors)
    return EvalReport(
        rmse_va=rmse_va(preds, golds),
        rmse_v=rv,
        rmse_a=ra,
        n=len(preds),
        error_median=median,
        frac_below_1=below,
        frac_above_2=above,
    )


def paired_from_files(gold_path, pred_path, gold_format: str = "simple_jsonl"):
    """(preds, golds) aligned lists from one parse of each file.

    Predictions are matched to gold instances on (sentence_id, aspect_index);
    every gold instance must have exactly one prediction.
    """
    labeled = (read_instances(gold_path) if gold_format == "instances"
               else parse_dataset(gold_path, format=gold_format))
    instances = [i for i in labeled if i.gold is not None]
    if not instances:
        raise MetricsError(f"{gold_path}: no gold-labeled instances")
    pred_map = read_predictions(pred_path)

    missing = [i.key for i in instances if i.key not in pred_map]
    if missing:
        raise MetricsError(f"missing predictions for {len(missing)} instances: {missing[:10]}")
    extra = set(pred_map) - {i.key for i in instances}
    if extra:
        raise MetricsError(f"predictions for unknown instances: {sorted(extra)[:10]}")

    preds = [pred_map[i.key] for i in instances]
    golds = [i.gold for i in instances]
    return preds, golds


def score_files(gold_path, pred_path, gold_format: str = "simple_jsonl",
                edges=DEFAULT_EDGES) -> EvalReport:
    """Official-scorer-style entry point: gold dataset file vs prediction file.

    The report carries the error heatmap over `edges` on both axes, built from
    the same aligned pairs (see paired_from_files).
    """
    preds, golds = paired_from_files(gold_path, pred_path, gold_format=gold_format)
    report = full_report(preds, golds)
    report.heatmap = va_heatmap(preds, golds, edges, edges)
    return report
