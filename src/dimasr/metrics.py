"""Evaluation: joint VA RMSE, per-dimension RMSE, error distribution, heatmap.

The headline metric is the joint RMSE over both dimensions:

    rmse_va = sqrt( (1/N) * sum_i [ (Vp_i - Vg_i)^2 + (Ap_i - Ag_i)^2 ] )

which satisfies rmse_va^2 = rmse_v^2 + rmse_a^2 by construction. The heatmap
bins instances by their GOLD coordinates (left-closed bins, last bin closed
at 9.0) and reports per-cell joint RMSE plus sample count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import read_gold, read_predictions


class MetricsError(ValueError):
    pass


DEFAULT_EDGES = (1.0, 3.0, 5.0, 7.0, 9.0)


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


def _as_arrays(preds, golds):
    """preds and golds, each a VAPair list or an (n, 2) array of VA rows, as arrays."""
    if len(preds) != len(golds):
        raise MetricsError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    if not len(preds):
        raise MetricsError("empty instance set")
    return tuple(x if isinstance(x, np.ndarray) else np.array([(y.valence, y.arousal) for y in x])
                 for x in (preds, golds))


def rmse_va(preds, golds) -> float:
    p, g = _as_arrays(preds, golds)
    return float(np.sqrt(np.mean(np.sum((p - g) ** 2, axis=1))))


def rmse_per_dimension(preds, golds):
    p, g = _as_arrays(preds, golds)
    return tuple(float(np.sqrt(np.mean((p[:, k] - g[:, k]) ** 2))) for k in (0, 1))


def per_instance_errors(preds, golds) -> np.ndarray:
    """Euclidean distance between predicted and gold VA points, order preserved."""
    p, g = _as_arrays(preds, golds)
    return np.sqrt(np.sum((p - g) ** 2, axis=1))


def error_distribution(errors):
    """(median, fraction strictly below 1.0, fraction strictly above 2.0)."""
    if len(errors) == 0:
        raise MetricsError("empty error list")
    e = np.asarray(errors, dtype=np.float64)  # np.median: midpoint of central pair for even N
    return float(np.median(e)), float(np.mean(e < 1.0)), float(np.mean(e > 2.0))


def va_heatmap(preds, golds, v_edges=DEFAULT_EDGES, a_edges=DEFAULT_EDGES) -> HeatmapGrid:
    for edges in (v_edges, a_edges):
        if len(edges) < 2 or any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
            raise MetricsError(f"bin edges must be strictly ascending, got {edges}")
    p, g = _as_arrays(preds, golds)
    sq = np.sum((p - g) ** 2, axis=1)
    # left-closed right-open bins, clamped: a value below the first edge goes to the
    # first bin and one at or past the last edge to the last, so the counts sum to n
    vi, ai = (np.clip(np.searchsorted(edges, g[:, k], side="right") - 1, 0, len(edges) - 2)
              for k, edges in enumerate((v_edges, a_edges)))
    members = [[sq[(vi == i) & (ai == j)] for j in range(len(a_edges) - 1)]
               for i in range(len(v_edges) - 1)]
    cells = [[{"rmse": float(np.sqrt(np.mean(m))) if m.size else None, "count": int(m.size)}
              for m in row] for row in members]
    return HeatmapGrid(tuple(v_edges), tuple(a_edges), cells)


def full_report(preds, golds) -> EvalReport:
    p, g = _as_arrays(preds, golds)
    rv, ra = rmse_per_dimension(p, g)
    median, below, above = error_distribution(per_instance_errors(p, g))
    return EvalReport(rmse_va(p, g), rv, ra, len(p), median, below, above)


def paired_from_files(gold_path, pred_path, gold_format: str = "simple_jsonl"):
    """(preds, golds): float64 (n, 2) VA arrays whose row i is the i-th gold-labeled
    instance, from one parse of each file.

    Predictions are matched to gold instances on (sentence_id, aspect_index);
    every gold instance must have exactly one prediction.
    """
    keys, golds = read_gold(gold_path, gold_format)
    if not keys:
        raise MetricsError(f"{gold_path}: no gold-labeled instances")
    index, rows = read_predictions(pred_path)

    picked = [index.get(key) for key in keys]
    missing = [key for key, row in zip(keys, picked) if row is None]
    if missing:
        raise MetricsError(f"missing predictions for {len(missing)} instances: {missing[:10]}")
    if len(set(picked)) < len(index):  # a prediction that no gold instance picked
        extra = set(index) - set(keys)
        raise MetricsError(f"predictions for unknown instances: {sorted(extra)[:10]}")

    return rows[picked], golds


def score_files(gold_path, pred_path, gold_format: str = "simple_jsonl",
                edges=DEFAULT_EDGES) -> EvalReport:
    """Official-scorer-style entry point: gold dataset file vs prediction file.

    The report carries the error heatmap over `edges` on both axes, built from
    the same aligned arrays (see paired_from_files).
    """
    preds, golds = paired_from_files(gold_path, pred_path, gold_format=gold_format)
    report = full_report(preds, golds)
    report.heatmap = va_heatmap(preds, golds, edges, edges)
    return report
