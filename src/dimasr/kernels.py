"""Numeric kernels for the training loop.

One numpy implementation of every hot kernel, float64 throughout and
deterministic, so repeated runs produce bit-identical results.

Where BLAS runs one thread on a machine with a second core, AdamW and the
heads' products split their work with one helper thread: each element gets
the operations it gets inline, so the results are the same bits.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

# float64s per AdamW block: 256 KiB per array, so one block of p, g, m, v and
# the two scratch arrays (1.5 MiB) stays in cache across the update's dozen
# elementwise passes instead of streaming every full array from memory per pass
ADAMW_BLOCK = 32768
# share of a table's rows past which the optimizer stops gathering the live
# rows and keeps whole-table moments: at d=32 over 4096 rows the row-aware
# step took 0.52 ms against 1.32 ms dense with 200 live rows, 1.35 ms against
# 1.09 ms with 2000
ADAMW_DENSE_SHARE = 0.25
# multiply-adds in one head's first-layer product from which head_forward and
# head_backward run each head's product on its own thread. A hand-off to the
# helper costs about 60 us: the forward pass took 103 us inline against 161 us
# split at 1 << 19 (16 rows, d=256), 261 against 231 us at 1 << 21 (64 rows,
# d=256), and 2.03 against 1.16 ms at 18.9M (64 rows, d=768)
HEAD_SPLIT_MACS = 1 << 21
# table size from which a row-aware AdamW step splits its decay pass with the
# helper thread. The pass costs about 1 ns a float, a tenth of the full
# formula, and two threads gain little on it: with 300 live rows the step
# took 0.87 ms inline against 1.06 ms split over 4096x128 floats, 2.0 against
# 2.1 ms over 8192x128, and 4.0 against 3.8 ms over 16384x128
DECAY_SPLIT_SIZE = 1 << 21
# the environment variables that set BLAS's thread count, in the order read
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads_setting():
    """The BLAS thread count the environment sets, as written: the first of
    BLAS_THREAD_VARS that is set and not empty, or None."""
    return next((os.environ[name] for name in BLAS_THREAD_VARS if os.environ.get(name)), None)


def _helper_pays() -> bool:
    """Whether kernels split their work with the helper thread: only with two
    usable cores and BLAS set to one thread. With BLAS threads on every core,
    their idle spinning takes the core the helper would use."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return cores >= 2 and (_blas_threads_setting() or "").strip() == "1"


# read once, at import: numpy's BLAS reads its thread settings when it loads
_SPLIT = _helper_pays()
_helper = None  # the helper thread's one-worker executor, started at first use


def _reset_helper():
    global _helper
    _helper = None


if hasattr(os, "register_at_fork"):  # a forked child has no helper thread: it starts its own
    os.register_at_fork(after_in_child=_reset_helper)


def _run(calls) -> None:
    """Call each of `calls`, functions of no arguments that write disjoint
    memory: the first on this thread, the rest in order on the helper thread.
    Returns once all have finished; raises what the first call raised, or
    else the first exception raised on the helper."""
    global _helper
    # imported here, so a process that never splits never loads the module
    from concurrent.futures import ThreadPoolExecutor, wait

    if _helper is None:
        _helper = ThreadPoolExecutor(1, thread_name_prefix="dimasr-kernels")
    futures = [_helper.submit(call) for call in calls[1:]]
    try:
        calls[0]()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _split_heads(W1, n) -> bool:
    """Whether a head stack's first-layer products over n rows go one head per thread."""
    k, hidden, d = W1.shape
    return _SPLIT and k > 1 and n * hidden * d >= HEAD_SPLIT_MACS


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def head_forward(H, W1, b1, w2, b2, mask=None):
    """Batch forward through a stack of k regression heads sharing the input.

    H: (n, d); W1: (k, hidden, d); b1: (k, hidden); w2: (k, hidden); b2: (k, 1);
    mask: optional (k, n, hidden) dropout mask, already scaled by 1/keep, applied
    to the tanh activations before the output layer. Returns (A1, Z2): unmasked
    activations (k, n, hidden) and raw outputs (k, n). The head is the batch
    axis of every matmul, so each head gets bit for bit what a call on its own
    slice gets; one flat (n, k*hidden) product would not. Split across the
    helper thread, each head's first layer runs on its own thread, with that
    same product.
    """
    if _split_heads(W1, len(H)):
        A1 = np.empty((len(W1), len(H), W1.shape[1]))
        _run([functools.partial(_first_layer, H, W, b, A) for W, b, A in zip(W1, b1, A1)])
    else:
        A1 = np.tanh(np.matmul(H, W1.transpose(0, 2, 1)) + b1[:, None, :])
    Z2 = np.matmul(A1 if mask is None else A1 * mask, w2[..., None])[..., 0] + b2
    return A1, Z2


def _first_layer(H, W, b, out):
    """One head's tanh(H @ W.T + b), computed in `out`."""
    np.matmul(H, W.T, out=out)
    out += b
    np.tanh(out, out=out)


def head_backward(dZ2, H, A1, W1, w2, mask=None, input_grad=True):
    """Gradients of a head stack given dL/dZ2 (k, n) and the forward pass's
    dropout mask: (dW1, db1, dw2, db2) stacked like the parameters, and dH
    (n, d) summed over the heads in order, or None when `input_grad` is false
    (nothing upstream reads it). Each sum runs over one head's slice in the
    order it would for that head alone.
    """
    dw2 = np.matmul((A1 if mask is None else A1 * mask).transpose(0, 2, 1), dZ2[..., None])[..., 0]
    db2 = dZ2.sum(axis=1, keepdims=True)
    dA1 = dZ2[:, :, None] * w2[:, None, :]
    if mask is not None:
        dA1 *= mask
    dZ1 = dA1 * (1.0 - A1 * A1)
    if _split_heads(W1, len(H)):
        dW1 = np.empty(W1.shape)
        _run([functools.partial(np.matmul, dZ, H, out=dW)
              for dZ, dW in zip(dZ1.transpose(0, 2, 1), dW1)])
    else:
        dW1 = np.matmul(dZ1.transpose(0, 2, 1), H)
    db1 = dZ1.sum(axis=1)
    dH = np.matmul(dZ1, W1).sum(axis=0) if input_grad else None
    return dW1, db1, dw2, db2, dH


def adamw_update(p, g, m, v, lr, beta1, beta2, eps, weight_decay, t, live=None):
    """In-place decoupled-weight-decay Adam step on C-contiguous float64 arrays.

    Applies, elementwise, the operations of

        m = beta1*m + (1-beta1)*g;  v = beta2*v + ((1-beta2)*g)*g
        p -= lr * ((m/c1) / (sqrt(v/c2) + eps) + weight_decay*p)

    in that order and with the same roundings, so the result is bit-identical
    to the whole-array formula.

    `live`, if given, is row ids (first axis) of p outside which g, m and v
    are exactly 0, and g, m and v hold those rows only: row i of each belongs
    to row live[i] of p. On every other row the formula reduces to
    p -= lr * (p*weight_decay), since 0/(sqrt(0)+eps) is 0 and 0 + x is x;
    only the sign of a zero can differ from the full formula. So the full
    formula runs on a copy of the live rows of p and on g, m and v in place,
    and a decay-only pass covers the table.

    With the helper thread, a dense update runs on the two halves of the
    arrays, cut at an ADAMW_BLOCK boundary, on the two threads; a row-aware
    one runs the live rows' formula and the two halves of the decay pass as
    three calls, and writes the live rows back once all three are done.
    """
    for x in (p, m, v):
        if not x.flags.c_contiguous:
            raise ValueError("adamw_update needs C-contiguous p, m and v")
    hyper = (lr, beta1, beta2, eps, weight_decay, t)
    pf = p.reshape(-1)
    if live is None:
        cut = _halves(p.size, 2 * ADAMW_BLOCK)
        if cut:
            flat = [pf] + [x.reshape(-1) for x in (g, m, v)]
            _run([functools.partial(_adamw_blocked, *(x[:cut] for x in flat), *hyper),
                  functools.partial(_adamw_blocked, *(x[cut:] for x in flat), *hyper)])
        else:
            _adamw_blocked(p, g, m, v, *hyper)
        return
    if any(x.shape != (len(live),) + p.shape[1:] for x in (g, m, v)):
        raise ValueError("adamw_update with live rows needs g, m and v of one row per live row")
    pl = p[live]
    live_rows = functools.partial(_adamw_blocked, pl, g, m, v, *hyper)
    cut = _halves(p.size, DECAY_SPLIT_SIZE)
    if weight_decay == 0.0:  # with no decay the full formula leaves p as it is
        live_rows()
    elif cut:
        _run([functools.partial(_decay_blocked, pf[:cut], lr, weight_decay), live_rows,
              functools.partial(_decay_blocked, pf[cut:], lr, weight_decay)])
    else:
        live_rows()
        _decay_blocked(p, lr, weight_decay)
    p[live] = pl


def _halves(n, least) -> int:
    """Where adamw_update cuts n elements for the helper thread: at the
    ADAMW_BLOCK boundary nearest the middle, or 0 (no cut) without the helper
    or under `least` elements."""
    if not _SPLIT or n < least:
        return 0
    return round(n / (2 * ADAMW_BLOCK)) * ADAMW_BLOCK


def _blocks(n):
    for start in range(0, n, ADAMW_BLOCK):
        yield start, min(start + ADAMW_BLOCK, n)


def _adamw_blocked(p, g, m, v, lr, beta1, beta2, eps, weight_decay, t):
    """adamw_update's full formula, ADAMW_BLOCK elements at a time."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    pf, gf, mf, vf = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    scratch_a = np.empty(min(pf.size, ADAMW_BLOCK))
    scratch_b = np.empty(min(pf.size, ADAMW_BLOCK))
    for start, end in _blocks(pf.size):
        pb, gb, mb, vb = pf[start:end], gf[start:end], mf[start:end], vf[start:end]
        a, b = scratch_a[: end - start], scratch_b[: end - start]
        mb *= beta1
        np.multiply(gb, 1.0 - beta1, out=a)
        mb += a
        vb *= beta2
        np.multiply(gb, 1.0 - beta2, out=a)
        a *= gb
        vb += a
        np.divide(mb, c1, out=a)  # mhat
        np.divide(vb, c2, out=b)  # vhat
        np.sqrt(b, out=b)
        b += eps
        a /= b
        np.multiply(pb, weight_decay, out=b)
        a += b
        a *= lr
        pb -= a


def _decay_blocked(p, lr, weight_decay):
    """The full formula on rows where g = m = v = 0: p -= lr * (p*weight_decay)."""
    pf = p.reshape(-1)
    scratch = np.empty(min(pf.size, ADAMW_BLOCK))
    for start, end in _blocks(pf.size):
        pb, a = pf[start:end], scratch[: end - start]
        np.multiply(pb, weight_decay, out=a)
        a *= lr
        pb -= a


def global_grad_norm(grads) -> float:
    """L2 norm over gradient arrays and compact (rows, values) gradients: one
    squared partial per gradient, summed in order. An array's is np.dot's; a
    compact one's is the correctly rounded math.fsum of its rows' squared
    sums, so it equals that fsum over its whole table, whose other rows are 0."""
    total = 0.0
    for g in grads:
        if isinstance(g, tuple):
            total += math.fsum(np.einsum("ij,ij->i", g[1], g[1]))
        else:
            f = np.reshape(np.asarray(g, dtype=np.float64), -1)
            total += float(np.dot(f, f))
    return float(np.sqrt(total))


def clip_gradients(grads, max_norm: float) -> float:
    """Scale gradients in place so the global norm is <= max_norm: an array
    whole, a compact gradient its values. Returns the pre-clip norm."""
    norm = global_grad_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            values = g[1] if isinstance(g, tuple) else g
            values *= scale
    return norm
