import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimasr.data import VAPair
from dimasr.metrics import (
    MetricsError,
    error_distribution,
    full_report,
    paired_from_files,
    per_instance_errors,
    rmse_per_dimension,
    rmse_va,
    score_files,
    va_heatmap,
)
from .conftest import FIXTURES, random_pairs


def brute_force_rmse_va(preds, golds):
    total = 0.0
    for p, g in zip(preds, golds):
        total += (p.valence - g.valence) ** 2 + (p.arousal - g.arousal) ** 2
    return math.sqrt(total / len(preds))


class TestRmseVa:
    def test_identity(self):
        pairs = [VAPair(2.0, 3.0), VAPair(8.0, 8.0)]
        assert rmse_va(pairs, pairs) == 0.0

    def test_hand_computed(self):
        preds = [VAPair(3.0, 3.0), VAPair(5.0, 5.0)]
        golds = [VAPair(2.0, 2.0), VAPair(5.0, 5.0)]
        assert rmse_va(preds, golds) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 101))
            preds, golds = random_pairs(rng, n), random_pairs(rng, n)
            assert rmse_va(preds, golds) == pytest.approx(
                brute_force_rmse_va(preds, golds), abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        preds, golds = random_pairs(rng, 30), random_pairs(rng, 30)
        assert rmse_va(preds, golds) == pytest.approx(rmse_va(golds, preds), abs=1e-12)

    def test_errors(self):
        with pytest.raises(MetricsError):
            rmse_va([], [])
        with pytest.raises(MetricsError):
            rmse_va([VAPair(5, 5)], [])


class TestPerDimension:
    def test_identity(self):
        pairs = [VAPair(4.0, 6.0)]
        assert rmse_per_dimension(pairs, pairs) == (0.0, 0.0)

    def test_axis_case(self):
        rv, ra = rmse_per_dimension([VAPair(6, 5)], [VAPair(5, 5)])
        assert (rv, ra) == (1.0, 0.0)
        assert rmse_va([VAPair(6, 5)], [VAPair(5, 5)]) == pytest.approx(1.0)

    def test_algebraic_identity(self):
        rng = np.random.default_rng(2)
        preds, golds = random_pairs(rng, 40), random_pairs(rng, 40)
        rv, ra = rmse_per_dimension(preds, golds)
        assert rv**2 + ra**2 == pytest.approx(rmse_va(preds, golds) ** 2, abs=1e-9)

    def test_joint_bounds(self):
        rng = np.random.default_rng(3)
        preds, golds = random_pairs(rng, 25), random_pairs(rng, 25)
        rv, ra = rmse_per_dimension(preds, golds)
        joint = rmse_va(preds, golds)
        assert joint >= max(rv, ra) - 1e-12
        assert joint <= rv + ra + 1e-12


class TestPerInstanceErrors:
    def test_reference_failure_case(self):
        # prediction (7.08, 7.08) vs gold (2.17, 7.67)
        e = per_instance_errors([VAPair(7.08, 7.08)], [VAPair(2.17, 7.67)])[0]
        assert e == pytest.approx(math.sqrt(4.91**2 + 0.59**2), abs=1e-9)
        assert e == pytest.approx(4.945, abs=1e-3)

    def test_zero(self):
        assert per_instance_errors([VAPair(5, 5)], [VAPair(5, 5)]) == [0.0]

    def test_3_4_5(self):
        assert per_instance_errors([VAPair(4, 1)], [VAPair(1, 5)])[0] == pytest.approx(5.0)

    def test_bounded_by_diagonal(self):
        rng = np.random.default_rng(4)
        errors = per_instance_errors(random_pairs(rng, 200), random_pairs(rng, 200))
        assert all(0.0 <= e <= 8 * math.sqrt(2) for e in errors)


class TestErrorDistribution:
    def test_hand_count(self):
        median, below, above = error_distribution([0.5, 1.5, 2.5])
        assert (median, below, above) == (1.5, pytest.approx(1 / 3), pytest.approx(1 / 3))

    def test_all_zero(self):
        assert error_distribution([0.0, 0.0]) == (0.0, 1.0, 0.0)

    def test_even_median_is_midpoint(self):
        median, _, _ = error_distribution([1.0, 2.0, 3.0, 4.0])
        assert median == 2.5

    def test_strict_comparisons(self):
        _, below, above = error_distribution([1.0, 2.0])
        assert below == 0.0 and above == 0.0

    def test_empty(self):
        with pytest.raises(MetricsError):
            error_distribution([])


class TestVaHeatmap:
    def test_single_cell(self):
        pairs = [VAPair(2.0, 2.0)] * 5
        grid = va_heatmap(pairs, pairs)
        assert grid.cells[0][0] == {"rmse": 0.0, "count": 5}
        assert sum(c["count"] for row in grid.cells for c in row) == 5
        assert all(c["count"] == 0 for row in grid.cells for c in row if c is not grid.cells[0][0])

    def test_left_closed_boundary(self):
        grid = va_heatmap([VAPair(3.0, 1.0)], [VAPair(3.0, 1.0)])
        assert grid.cells[1][0]["count"] == 1  # 3.0 belongs to [3,5)

    def test_right_edge_closed(self):
        grid = va_heatmap([VAPair(9.0, 9.0)], [VAPair(9.0, 9.0)])
        assert grid.cells[3][3]["count"] == 1

    def test_values_outside_the_edges_are_clamped(self):
        # a gold value below the first edge counts in the first bin, one past the
        # last edge in the last, so the cell counts still sum to n
        golds = [VAPair(1.0, 1.0), VAPair(1.0, 9.0), VAPair(9.0, 1.0), VAPair(9.0, 9.0)]
        grid = va_heatmap(golds, golds, (3, 5, 7), (3, 5, 7))
        assert [[c["count"] for c in row] for row in grid.cells] == [[1, 1], [1, 1]]

    def test_counts_and_cell_rmse_match_brute_force(self):
        rng = np.random.default_rng(5)
        edges = (1.0, 3.0, 5.0, 7.0, 9.0)
        on_edges = [VAPair(v, a) for v in edges for a in edges]  # every edge on both axes
        inputs = [(random_pairs(rng, 50), random_pairs(rng, 50)),
                  (random_pairs(rng, len(on_edges)), on_edges)]
        for preds, golds in inputs:
            grid = va_heatmap(preds, golds, edges, edges)
            assert sum(c["count"] for row in grid.cells for c in row) == len(golds)
            for i in range(4):
                for j in range(4):
                    members = []
                    for p, g in zip(preds, golds):
                        vi = min(int((g.valence - 1.0) // 2), 3)
                        ai = min(int((g.arousal - 1.0) // 2), 3)
                        if (vi, ai) == (i, j):
                            members.append((p.valence - g.valence) ** 2
                                           + (p.arousal - g.arousal) ** 2)
                    cell = grid.cells[i][j]
                    assert cell["count"] == len(members)
                    if members:
                        assert cell["rmse"] == pytest.approx(math.sqrt(sum(members) / len(members)),
                                                             abs=1e-9)
                    else:
                        assert cell["rmse"] is None

    def test_marginal_reproduces_global(self):
        rng = np.random.default_rng(6)
        preds, golds = random_pairs(rng, 80), random_pairs(rng, 80)
        grid = va_heatmap(preds, golds)
        total_sq = sum(c["rmse"] ** 2 * c["count"] for row in grid.cells
                       for c in row if c["count"])
        assert math.sqrt(total_sq / 80) == pytest.approx(rmse_va(preds, golds), abs=1e-9)

    def test_unsorted_edges(self):
        with pytest.raises(MetricsError, match="ascending"):
            va_heatmap([VAPair(5, 5)], [VAPair(5, 5)], (1, 5, 3, 9), (1, 9))


class TestScoreFiles:
    def test_identity(self, tmp_path):
        import json
        from dimasr.data import format_va_string, parse_dataset

        gold = FIXTURES / "gold_5.jsonl"
        pred = tmp_path / "pred.jsonl"
        with pred.open("w") as fh:
            for inst in parse_dataset(gold):
                fh.write(json.dumps({"id": inst.sentence_id, "aspect": inst.aspect,
                                     "aspect_index": inst.aspect_index,
                                     "va": format_va_string(inst.gold)}) + "\n")
        report = score_files(gold, pred)
        assert report.rmse_va == 0.0 and report.n == 5

    def test_fixture_hand_computed(self):
        report = score_files(FIXTURES / "gold_5.jsonl", FIXTURES / "pred_5.jsonl")
        # squared errors: 0, 0.3125, 1.0, 2.0, 2.0 -> rmse_va = sqrt(5.3125/5)
        assert report.rmse_va == pytest.approx(math.sqrt(1.0625), abs=1e-9)
        assert report.rmse_v == pytest.approx(math.sqrt(3.25 / 5), abs=1e-9)
        assert report.rmse_a == pytest.approx(math.sqrt(2.0625 / 5), abs=1e-9)
        assert report.n == 5
        assert report.error_median == pytest.approx(1.0, abs=1e-9)
        assert report.frac_below_1 == pytest.approx(0.4)
        assert report.frac_above_2 == 0.0

    def test_missing_prediction_named(self, tmp_path):
        pred = tmp_path / "pred.jsonl"
        lines = (FIXTURES / "pred_5.jsonl").read_text().strip().split("\n")
        pred.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MetricsError, match="g5"):
            score_files(FIXTURES / "gold_5.jsonl", pred)

    def test_duplicate_prediction(self, tmp_path):
        pred = tmp_path / "pred.jsonl"
        lines = (FIXTURES / "pred_5.jsonl").read_text().strip().split("\n")
        pred.write_text("\n".join(lines + [lines[0]]) + "\n")
        with pytest.raises(Exception, match="duplicate"):
            score_files(FIXTURES / "gold_5.jsonl", pred)


class TestPairedFromFiles:
    def test_arrays_in_gold_order(self, tmp_path):
        pred = tmp_path / "pred.jsonl"
        lines = (FIXTURES / "pred_5.jsonl").read_text().strip().split("\n")
        pred.write_text("\n".join(reversed(lines)) + "\n")
        preds, golds = paired_from_files(FIXTURES / "gold_5.jsonl", pred)
        assert preds.dtype == golds.dtype == np.float64
        assert preds.tolist() == [[5.0, 5.0], [8.0, 8.0], [2.33, 8.67], [6.1, 7.9], [3.6, 4.7]]
        assert golds.tolist() == [[5.0, 5.0], [8.5, 8.25], [1.33, 8.67], [7.1, 6.9], [2.6, 5.7]]

    def test_extra_prediction_named(self, tmp_path):
        pred = tmp_path / "pred.jsonl"
        extra = '{"id": "g9", "aspect": "x", "aspect_index": 2, "va": "5.00#5.00"}'
        pred.write_text((FIXTURES / "pred_5.jsonl").read_text() + extra + "\n")
        with pytest.raises(MetricsError,
                           match=r"predictions for unknown instances: \[\('g9', 2\)\]"):
            paired_from_files(FIXTURES / "gold_5.jsonl", pred)


def test_arrays_score_as_pair_lists():
    rng = np.random.default_rng(8)
    preds, golds = random_pairs(rng, 60), random_pairs(rng, 60)
    arrays = [np.array([(x.valence, x.arousal) for x in pairs]) for pairs in (preds, golds)]
    assert full_report(*arrays) == full_report(preds, golds)
    assert va_heatmap(*arrays) == va_heatmap(preds, golds)
    assert per_instance_errors(*arrays).tolist() == per_instance_errors(preds, golds).tolist()


@settings(max_examples=50)
@given(st.lists(st.tuples(st.floats(1, 9), st.floats(1, 9), st.floats(1, 9), st.floats(1, 9)),
                min_size=1, max_size=30))
def test_report_internal_consistency(rows):
    preds = [VAPair(r[0], r[1]) for r in rows]
    golds = [VAPair(r[2], r[3]) for r in rows]
    report = full_report(preds, golds)
    assert report.rmse_v**2 + report.rmse_a**2 == pytest.approx(report.rmse_va**2, abs=1e-9)
    assert 0.0 <= report.frac_below_1 <= 1.0
    assert 0.0 <= report.frac_above_2 <= 1.0
