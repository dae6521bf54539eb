"""Kernels against plain references: explicit loops for the head passes and
the whole-array AdamW formula the blocked and row-aware updates must
reproduce bit for bit, alone and through whole fits."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimasr import kernels, trainer
from dimasr.data import parse_dataset, split_dev_protocol
from dimasr.kernels import clip_gradients, global_grad_norm
from dimasr.model import DimASRModel, TinyEncoder, build_input
from dimasr.trainer import TrainConfig, fit

from .conftest import make_instances

FIXTURES = Path(__file__).parent / "fixtures"

rng = np.random.default_rng(123)


def adamw_oracle(p, g, m, v, lr, beta1, beta2, eps, weight_decay, t):
    """The unblocked whole-array AdamW step, verbatim from before blocking."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    p -= lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * p)


def dense_adamw(*args, live=None):
    """adamw_update's signature over the whole-array oracle, for fits whose
    table gradient is a whole table."""
    assert live is None
    adamw_oracle(*args)


def fsum_rows_norm(grads, table_shape):
    """global_grad_norm over dense arrays only, with the stated norm: one
    partial per array in order, the table's (the array of `table_shape`) the
    math.fsum of every row's squared sum, any other array's np.dot."""
    total = 0.0
    for g in grads:
        assert isinstance(g, np.ndarray)
        if g.shape == table_shape:
            total += math.fsum(np.einsum("ij,ij->i", g, g))
        else:
            total += float(np.dot(g.reshape(-1), g.reshape(-1)))
    return math.sqrt(total)


class DenseTinyEncoder(TinyEncoder):
    """TinyEncoder whose table gradient is a whole table, summed into zeros
    instance by instance with np.add.at, then clipped and AdamW-updated
    whole: the dense path end to end."""

    def backward(self, dH, cache, grads):
        super().backward(dH, cache, grads)
        token_seqs, P, H = cache
        dP = (dH * (1.0 - H * H)) @ self.W
        table = np.zeros_like(self.emb)
        for i, ids in enumerate(token_seqs):
            np.add.at(table, ids, dP[i] / len(ids))
        grads["encoder.emb"] = table


def test_sigmoid_matches_reference():
    x = rng.normal(scale=10, size=200)
    ref = [1.0 / (1.0 + math.exp(-xi)) if xi >= 0 else math.exp(xi) / (1.0 + math.exp(xi))
           for xi in x]
    np.testing.assert_allclose(kernels.sigmoid(x), ref, rtol=0, atol=1e-14)


def test_sigmoid_extremes_stable():
    x = np.array([-800.0, 800.0])
    y = kernels.sigmoid(x)
    assert y[0] == pytest.approx(0.0) and y[1] == pytest.approx(1.0)
    assert np.all(np.isfinite(y))


def test_head_forward_backward_match_reference():
    n, d, hidden = 9, 12, 6
    H = rng.normal(size=(n, d))
    W1 = rng.normal(size=(2, hidden, d))
    b1 = rng.normal(size=(2, hidden))
    w2 = rng.normal(size=(2, hidden))
    b2 = rng.normal(size=(2, 1))
    dZ2 = rng.normal(size=(2, n))
    keep = 0.7
    dropout = (rng.random((2, n, hidden)) < keep) / keep
    for mask in (None, dropout):
        M = np.ones((2, n, hidden)) if mask is None else mask
        A1, Z2 = kernels.head_forward(H, W1, b1, w2, b2, mask)
        dW1, db1, dw2, db2, dH = kernels.head_backward(dZ2, H, A1, W1, w2, mask)
        dH_ref = np.zeros((n, d))
        for h in range(2):
            A1r = np.array([[math.tanh(sum(H[i, k] * W1[h, j, k] for k in range(d)) + b1[h, j])
                             for j in range(hidden)] for i in range(n)])
            Z2r = np.array([sum(A1r[i, j] * M[h, i, j] * w2[h, j] for j in range(hidden)) + b2[h, 0]
                            for i in range(n)])
            np.testing.assert_allclose(A1[h], A1r, atol=1e-12)
            np.testing.assert_allclose(Z2[h], Z2r, atol=1e-12)

            dZ1 = np.array([[dZ2[h, i] * w2[h, j] * M[h, i, j] * (1.0 - A1r[i, j] ** 2)
                             for j in range(hidden)] for i in range(n)])
            np.testing.assert_allclose(dw2[h], [sum(A1r[i, j] * M[h, i, j] * dZ2[h, i]
                                                    for i in range(n)) for j in range(hidden)],
                                       atol=1e-10)
            assert db2[h, 0] == pytest.approx(sum(dZ2[h]), abs=1e-10)
            np.testing.assert_allclose(db1[h], dZ1.sum(axis=0), atol=1e-10)
            np.testing.assert_allclose(dW1[h], [[sum(dZ1[i, j] * H[i, k] for i in range(n))
                                                 for k in range(d)] for j in range(hidden)],
                                       atol=1e-10)
            dH_ref += [[sum(dZ1[i, j] * W1[h, j, k] for j in range(hidden)) for k in range(d)]
                       for i in range(n)]
        np.testing.assert_allclose(dH, dH_ref, atol=1e-10)


@pytest.mark.parametrize("n,d", [(5, 256), (64, 32), (16, 768)])
def test_stacked_heads_equal_single_head_calls(n, d):
    """Each head of the stack gets exactly the result a one-head (k=1) call on
    its own slice gets, and dH is the heads' dH summed in order; without the
    input gradient the parameter gradients are unchanged and dH is None."""
    hidden = d // 2
    H = rng.normal(size=(n, d))
    W1 = rng.normal(0.0, 0.02, size=(2, hidden, d))
    b1 = rng.normal(size=(2, hidden))
    w2 = rng.normal(size=(2, hidden))
    b2 = rng.normal(size=(2, 1))
    dZ2 = rng.normal(size=(2, n))
    for mask in (None, (rng.random((2, n, hidden)) < 0.8) / 0.8):
        A1, Z2 = kernels.head_forward(H, W1, b1, w2, b2, mask)
        stacked = kernels.head_backward(dZ2, H, A1, W1, w2, mask)
        dH = None
        for h in range(2):
            one = slice(h, h + 1)
            m = None if mask is None else mask[one]
            a1, z2 = kernels.head_forward(H, W1[one], b1[one], w2[one], b2[one], m)
            assert np.array_equal(a1[0], A1[h]) and np.array_equal(z2[0], Z2[h])
            single = kernels.head_backward(dZ2[one], H, a1, W1[one], w2[one], m)
            for got, want in zip(stacked[:4], single[:4]):  # dW1, db1, dw2, db2
                assert np.array_equal(got[h], want[0])
            dH = single[4] if dH is None else dH + single[4]
        assert np.array_equal(stacked[4], dH)
        no_dH = kernels.head_backward(dZ2, H, A1, W1, w2, mask, input_grad=False)
        assert no_dH[4] is None
        for got, want in zip(no_dH[:4], stacked[:4]):
            assert np.array_equal(got, want)


def test_adamw_matches_reference():
    # sizes on both sides of the block boundary, and a 2-D array
    block = kernels.ADAMW_BLOCK
    for shape in [(1,), (block - 1,), (block,), (block + 1,), (300, 257)]:
        for weight_decay in (0.0, 0.01):
            p = rng.normal(size=shape)
            new = (p.copy(), np.zeros(shape), np.zeros(shape))
            old = (p.copy(), np.zeros(shape), np.zeros(shape))
            for t in range(1, 6):
                g = rng.normal(size=shape)
                hyper = (1e-3, 0.9, 0.999, 1e-8, weight_decay, t)
                kernels.adamw_update(new[0], g, new[1], new[2], *hyper)
                adamw_oracle(old[0], g, old[1], old[2], *hyper)
                for got, want in zip(new, old):  # p, m, v
                    assert np.array_equal(got, want), (shape, weight_decay, t)


@pytest.mark.parametrize("shape", [(300, 257), (kernels.ADAMW_BLOCK + 1,)])
@pytest.mark.parametrize("touched_percent", [0, 8, 100])  # none, random, all
def test_adamw_live_rows_match_dense_oracle(shape, touched_percent):
    """Gradients nonzero only on each step's touched rows; `live` is every row
    touched so far, in the order first touched, and g, m and v hold those
    rows only. p and the live rows' moments equal the whole-array oracle's,
    whose moments stay 0 on every other row. Rows straddle ADAMW_BLOCK
    boundaries."""
    rows = shape[0]
    for weight_decay in (0.0, 0.01):
        p = rng.normal(size=shape)
        live = np.empty(0, dtype=np.intp)
        new = (p.copy(), np.zeros((0,) + shape[1:]), np.zeros((0,) + shape[1:]))
        old = (p.copy(), np.zeros(shape), np.zeros(shape))
        for t in range(1, 6):
            touched = rng.choice(rows, size=rows * touched_percent // 100, replace=False)
            g = np.zeros(shape)
            g[touched] = rng.normal(size=(len(touched),) + shape[1:])
            first = np.setdiff1d(touched, live)
            live = np.concatenate([live, rng.permutation(first)])
            pad = np.zeros((len(first),) + shape[1:])
            new = (new[0], np.concatenate([new[1], pad]), np.concatenate([new[2], pad]))
            hyper = (1e-3, 0.9, 0.999, 1e-8, weight_decay, t)
            kernels.adamw_update(new[0], g[live], new[1], new[2], *hyper, live=live)
            adamw_oracle(old[0], g, old[1], old[2], *hyper)
            assert np.array_equal(new[0], old[0]), (shape, touched_percent, weight_decay, t)
            never = np.ones(rows, dtype=bool)
            never[live] = False
            for got, want in zip(new[1:], old[1:]):  # m, v
                assert np.array_equal(got, want[live]), (shape, touched_percent, weight_decay, t)
                assert not want[never].any()


def test_adamw_live_rows_need_one_moment_row_per_live_row():
    p = np.zeros((6, 3))
    with pytest.raises(ValueError, match="one row per live row"):
        kernels.adamw_update(p, np.zeros_like(p), np.zeros_like(p), np.zeros_like(p),
                             1e-3, 0.9, 0.999, 1e-8, 0.0, 1, live=np.array([0, 4]))


def test_adamw_rejects_non_contiguous():
    p = np.zeros((4, 4))[:, ::2]
    with pytest.raises(ValueError, match="contiguous"):
        kernels.adamw_update(p, np.ones_like(p), np.zeros_like(p), np.zeros_like(p),
                             1e-3, 0.9, 0.999, 1e-8, 0.0, 1)


def _fit_row_aware_and_dense(monkeypatch, make_model, fit_set, val_set, config):
    """The same fit twice: row-aware, then dense end to end (DenseTinyEncoder,
    whole-array AdamW oracle, fsum_rows_norm). Asserts history and every
    parameter are equal; returns the row-aware fit's history and, per
    adamw_update call on its embedding table, (live rows, or None for the
    dense form; table rows)."""
    table_calls = []
    blocked = kernels.adamw_update
    row_aware = make_model(TinyEncoder)

    def spy(p, *args, live=None):
        if p is row_aware.encoder.emb:
            table_calls.append((None if live is None else len(live), len(p)))
        blocked(p, *args, live=live)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "adamw_update", spy)
        model, history = fit(row_aware, fit_set, val_set, config)
    with monkeypatch.context() as patch:
        ref_model = make_model(DenseTinyEncoder)
        patch.setattr(kernels, "adamw_update", dense_adamw)
        patch.setattr(kernels, "global_grad_norm", functools.partial(
            fsum_rows_norm, table_shape=ref_model.encoder.emb.shape))
        ref_model, ref_history = fit(ref_model, fit_set, val_set, config)
    assert history.records == ref_history.records
    assert history.best_epoch == ref_history.best_epoch
    params, ref_params = model.parameters(), ref_model.parameters()
    assert params.keys() == ref_params.keys()
    for name in params:
        assert np.array_equal(params[name], ref_params[name]), name
    return history, table_calls


def test_fit_matches_unblocked_adamw(monkeypatch):
    """configs/smoke.yaml's encoder and training settings on the tiny fixture."""
    instances = parse_dataset(FIXTURES / "tiny_dataset.jsonl")
    split = split_dev_protocol(instances, ratio=0.8, seed=42)
    config = TrainConfig(batch_size=16, learning_rate=0.01, dropout=0.0,
                         max_epochs=5, patience=5, seed=42)

    def make_model(encoder_class):
        return DimASRModel(encoder_class(dim=32, vocab_size=4096, seed=0), seed=42,
                           input_dropout_rate=0.0, head_dropout_rate=0.0)

    history, table_calls = _fit_row_aware_and_dense(
        monkeypatch, make_model, list(split.train), list(split.eval), config)
    assert any(r.clipped_frac > 0 for r in history.records)
    assert table_calls and all(live is not None and live <= rows * kernels.ADAMW_DENSE_SHARE
                               for live, rows in table_calls)


# (vocab_size, dim, dropout, settings): where the live rows stay relative to
# ADAMW_DENSE_SHARE of the table, and what else the fit exercises
ROW_AWARE_FITS = {
    "under_quarter": (4096, 16, 0.0, {}),
    "crosses_quarter": (128, 8, 0.0, {}),
    "dropout_no_decay": (4096, 16, 0.2, {"weight_decay": 0.0}),
    "best_epoch_restore": (256, 16, 0.0, {"learning_rate": 0.05, "max_epochs": 8, "patience": 3}),
}


@pytest.mark.parametrize("case", sorted(ROW_AWARE_FITS))
def test_row_aware_fit_matches_dense_fit(monkeypatch, case):
    vocab_size, dim, dropout, settings = ROW_AWARE_FITS[case]
    instances = make_instances(48, seed=3)
    config = TrainConfig(**dict(dict(batch_size=8, learning_rate=0.01, dropout=dropout,
                                     max_epochs=3, patience=3, seed=1), **settings))

    def make_model(encoder_class):
        return DimASRModel(encoder_class(dim=dim, vocab_size=vocab_size, seed=0), seed=1,
                           input_dropout_rate=dropout, head_dropout_rate=dropout)

    history, table_calls = _fit_row_aware_and_dense(
        monkeypatch, make_model, instances[:36], instances[36:], config)
    assert all(live is None or live <= rows * kernels.ADAMW_DENSE_SHARE
               for live, rows in table_calls)
    dense = [live is None for live, _ in table_calls]
    # the row-aware form first; once dense, dense to the end of the fit
    assert table_calls and not dense[0] and dense == sorted(dense)
    assert any(dense) == (case == "crosses_quarter")
    if case == "best_epoch_restore":
        assert history.stopped_early and history.best_epoch < len(history.records)


def test_moments_held_for_exactly_the_rows_steps_touched(monkeypatch):
    """The row-aware step rests on m = v = 0 on every row no step has touched:
    the optimizer holds moments for exactly the touched rows, and only those."""
    optimizers = []

    class RecordingAdamW(trainer.AdamW):
        def __init__(self, params, config):
            super().__init__(params, config)
            optimizers.append(self)

    monkeypatch.setattr(trainer, "AdamW", RecordingAdamW)
    instances = make_instances(48, seed=3)
    model = DimASRModel(TinyEncoder(dim=16, vocab_size=4096, seed=0), seed=1,
                        input_dropout_rate=0.0, head_dropout_rate=0.0)
    fit(model, instances[:36], instances[36:],
        TrainConfig(batch_size=8, learning_rate=0.01, dropout=0.0, max_epochs=3, patience=3))
    (optimizer,) = optimizers
    touched = np.zeros(4096, dtype=bool)
    for inst in instances[:36]:
        touched[build_input(inst.text, inst.aspect, model.encoder)] = True
    live = optimizer.live["encoder.emb"]
    assert len(live) == len(set(live.tolist())) == touched.sum()
    assert touched[live].all()
    assert 0 < touched.sum() < 4096 * kernels.ADAMW_DENSE_SHARE
    for moment in (optimizer.m["encoder.emb"], optimizer.v["encoder.emb"]):
        assert moment.shape == (len(live), 16)
        assert moment.any(axis=1).all()


def dot_norm(grads):
    """global_grad_norm as it was before compact gradients, verbatim."""
    total = 0.0
    for g in grads:
        f = np.reshape(np.asarray(g, dtype=np.float64), -1)
        total += float(np.dot(f, f))
    return float(np.sqrt(total))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 64), dim=st.integers(1, 40),
       touched=st.sampled_from(["none", "some", "all"]), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 0.1, 1.0, 1e3]))
def test_compact_gradient_matches_its_dense_table(rows, dim, touched, seed, scale):
    """A compact table gradient, beside dense arrays: its norm `==` the
    fsum-of-every-row norm of its dense scatter, whichever rows it holds;
    clip_gradients scales its values exactly as it scales the dense rows; and
    lists of arrays alone keep np.dot's norm bit for bit."""
    draw = np.random.default_rng(seed)
    k = {"none": 0, "some": int(draw.integers(1, rows + 1)), "all": rows}[touched]
    ids = np.sort(draw.choice(rows, size=k, replace=False))
    values = draw.normal(scale=scale, size=(k, dim))
    others = [draw.normal(scale=scale, size=(rows + 1, dim)), draw.normal(scale=scale, size=dim)]
    table = np.zeros((rows, dim))
    table[ids] = values
    compact = [(ids, values)] + [g.copy() for g in others]
    dense = [table] + [g.copy() for g in others]
    oracle = functools.partial(fsum_rows_norm, table_shape=table.shape)
    assert global_grad_norm(compact) == oracle(dense)
    for arrays in (others, dense):
        assert global_grad_norm(arrays) == dot_norm(arrays)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "global_grad_norm", oracle)
        dense_norm = clip_gradients(dense, 1.0)
    assert clip_gradients(compact, 1.0) == dense_norm
    assert np.array_equal(values, table[ids]) and compact[0][0] is ids
    assert not np.delete(table, ids, axis=0).any()
    for got, want in zip(compact[1:], dense[1:]):
        assert np.array_equal(got, want)


def test_clip_gradients():
    grads = [rng.normal(size=(4, 4)), rng.normal(size=7)]
    pre = global_grad_norm(grads)
    assert pre == pytest.approx(math.sqrt(sum(x * x for g in grads for x in g.flat)), rel=1e-14)
    returned = clip_gradients(grads, 1.0)
    assert returned == pytest.approx(pre)
    assert global_grad_norm(grads) <= 1.0 + 1e-6


def test_clip_noop_when_small():
    grads = [np.full(3, 1e-4)]
    clip_gradients(grads, 1.0)
    np.testing.assert_allclose(grads[0], 1e-4)
