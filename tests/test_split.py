"""The helper thread: with it, every kernel that splits its work gives the
bits it gives inline, alone and through whole fits; it is used only with two
usable cores and BLAS set to one thread; and a fault on it reaches the
caller."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from dimasr import kernels
from dimasr.model import DimASRModel, TinyEncoder
from dimasr.trainer import TrainConfig, fit

from .conftest import make_instances
from .test_trainer import FrozenStandIn

BLOCK = kernels.ADAMW_BLOCK
HYPER = (1e-3, 0.9, 0.999, 1e-8)


@pytest.fixture
def split_calls(monkeypatch):
    """The length of the call list of each _run, the helper's hand-off."""
    calls = []
    run = kernels._run

    def counting(fns):
        calls.append(len(fns))
        run(fns)

    monkeypatch.setattr(kernels, "_run", counting)
    return calls


@pytest.fixture
def inline_and_split(monkeypatch, split_calls):
    """compute() inline, then split: both results and the split one's hand-offs."""
    def both(compute):
        monkeypatch.setattr(kernels, "_SPLIT", False)
        inline = compute()
        assert not split_calls
        monkeypatch.setattr(kernels, "_SPLIT", True)
        return inline, compute(), list(split_calls)

    return both


@pytest.mark.parametrize("shape", [(1,), (2 * BLOCK - 1,), (2 * BLOCK,), (2 * BLOCK + 1,),
                                   (3 * BLOCK + 7,), (384, 768)])
def test_dense_adamw_split_equals_inline(inline_and_split, shape):
    rng = np.random.default_rng(shape[0])
    start = rng.normal(size=shape)
    grads = [rng.normal(size=shape) for _ in range(3)]

    def steps():
        p, m, v = start.copy(), np.zeros(shape), np.zeros(shape)
        for t, g in enumerate(grads, start=1):
            kernels.adamw_update(p, g, m, v, *HYPER, 0.01 * (t % 2), t)
        return p, m, v

    inline, split, calls = inline_and_split(steps)
    for got, want in zip(split, inline):
        assert np.array_equal(got, want)
    assert calls == ([2] * len(grads) if start.size >= 2 * BLOCK else [])


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_row_aware_adamw_split_equals_inline(inline_and_split, monkeypatch, weight_decay):
    """A table past DECAY_SPLIT_SIZE (lowered here, to keep the arrays small)
    splits its decay pass in two halves beside the live rows' formula."""
    monkeypatch.setattr(kernels, "DECAY_SPLIT_SIZE", 2 * BLOCK)
    rng = np.random.default_rng(5)
    shape = (3 * BLOCK // 64 + 5, 64)
    start = rng.normal(size=shape)
    live = rng.permutation(shape[0])[:300]

    def steps():
        p = start.copy()
        m, v = np.zeros((len(live), 64)), np.zeros((len(live), 64))
        for t in range(1, 4):
            g = np.random.default_rng(t).normal(size=(len(live), 64))
            kernels.adamw_update(p, g, m, v, *HYPER, weight_decay, t, live=live)
        return p, m, v

    inline, split, calls = inline_and_split(steps)
    for got, want in zip(split, inline):
        assert np.array_equal(got, want)
    assert calls == ([3] * 3 if weight_decay else [])


@pytest.mark.parametrize("n,d", [(16, 768), (64, 768), (64, 32)])
@pytest.mark.parametrize("masked", [False, True])
def test_head_kernels_split_equal_inline(inline_and_split, monkeypatch, n, d, masked):
    """Each head's first-layer product, and its dW1, on its own thread; the
    (64, 32) heads fall under HEAD_SPLIT_MACS and split only with it lowered."""
    if n * (d // 2) * d < kernels.HEAD_SPLIT_MACS:
        monkeypatch.setattr(kernels, "HEAD_SPLIT_MACS", 0)
    rng = np.random.default_rng(n + d)
    hidden = d // 2
    H = rng.normal(size=(n, d))
    W1 = rng.normal(0.0, 0.02, size=(2, hidden, d))
    b1, w2, b2 = rng.normal(size=(2, hidden)), rng.normal(size=(2, hidden)), rng.normal(size=(2, 1))
    dZ2 = rng.normal(size=(2, n))
    mask = (rng.random((2, n, hidden)) < 0.9) / 0.9 if masked else None

    def passes():
        A1, Z2 = kernels.head_forward(H, W1, b1, w2, b2, mask)
        return ((A1, Z2) + kernels.head_backward(dZ2, H, A1, W1, w2, mask)
                + kernels.head_backward(dZ2, H, A1, W1, w2, mask, input_grad=False)[:4])

    inline, split, calls = inline_and_split(passes)
    for got, want in zip(split, inline):
        assert np.array_equal(got, want)
    assert calls == [2, 2, 2]


@pytest.mark.parametrize("encoder_class", [FrozenStandIn, TinyEncoder])
def test_fit_split_equals_inline(inline_and_split, monkeypatch, encoder_class):
    """A train-frozen-shaped fit (heads-only behind a frozen 768-wide
    encoder, eng_lap's training settings), and a fit of a trainable table
    whose row-aware decay pass splits: the same history, parameters and
    predictions."""
    monkeypatch.setattr(kernels, "DECAY_SPLIT_SIZE", 2 * BLOCK)
    instances = make_instances(56, seed=11)
    config = TrainConfig(batch_size=16, learning_rate=2e-5 if encoder_class is FrozenStandIn
                         else 0.01, max_epochs=3, patience=3, seed=42)
    dim = 768 if encoder_class is FrozenStandIn else 64

    def train():
        model = DimASRModel(encoder_class(dim=dim, vocab_size=4096, seed=0), seed=42)
        model, history = fit(model, instances[:40], instances[40:], config)
        return history, model.parameters(), model.predict_raw(instances)

    (history, params, raw), (split_history, split_params, split_raw), calls = \
        inline_and_split(train)
    assert split_history == history
    assert split_params.keys() == params.keys()
    for name in params:
        assert np.array_equal(split_params[name], params[name]), name
    assert np.array_equal(split_raw, raw)
    assert calls


def test_fault_on_the_helper_reaches_the_caller():
    """_run waits for every call, then raises the caller's fault, else the
    helper's; the helper serves the next call as before."""
    done = []

    def fail():
        raise ValueError("on the helper")

    def first():
        done.append(threading.current_thread() is threading.main_thread())

    with pytest.raises(ValueError, match="on the helper"):
        kernels._run([first, fail, first])
    assert done == [True, False]

    def fail_here():
        raise KeyError("on the caller")

    with pytest.raises(KeyError, match="on the caller"):
        kernels._run([fail_here, fail, first])
    assert done == [True, False, False]  # the helper ran its calls to the end
    kernels._run([first, first])
    assert done[-2:] == [True, False]


@pytest.mark.parametrize("env,cores,split", [
    ({}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "", "MKL_NUM_THREADS": "1"}, 4, True),
    ({"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "1"}, None, True),
], ids=["unset", "two-threads", "one-core", "one-thread", "empty-is-unset", "first-set-wins",
        "omp", "no-affinity-call"])
def test_helper_only_with_one_blas_thread_and_two_cores(monkeypatch, env, cores, split):
    for name in kernels.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if cores is None:  # the core count then comes from os.cpu_count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert kernels._helper_pays() is split


def test_default_environment_runs_inline():
    """With no BLAS thread setting, as a plain shell has it, the kernels run
    inline: no helper thread starts, even at sizes that would split."""
    env = {k: v for k, v in os.environ.items() if k not in kernels.BLAS_THREAD_VARS}
    code = """if True:
        import threading
        import numpy as np
        from dimasr import kernels
        p = np.zeros((384, 768))
        kernels.adamw_update(p, np.ones_like(p), np.zeros_like(p), np.zeros_like(p),
                             1e-3, 0.9, 0.999, 1e-8, 0.01, 1)
        kernels.head_forward(np.ones((64, 768)), np.zeros((2, 384, 768)), np.zeros((2, 384)),
                             np.zeros((2, 384)), np.zeros((2, 1)))
        print(kernels._SPLIT, kernels._helper, threading.active_count())
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False", "None", "1"]
