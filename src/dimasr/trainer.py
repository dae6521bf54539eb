"""Training loop: summed-MSE loss, AdamW, warmup + linear decay, early stopping.

Early stopping watches the joint VA RMSE on the validation split; the best
epoch's parameters are restored before returning. All randomness (epoch
shuffles, dropout) is derived from the single config seed through named
sub-streams, so runs are reproducible with the stand-in encoder.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .data import from_mapping
from .metrics import rmse_va
from .model import MIN_MAX_LEN, DimASRModel, ModelError, scale_to_va


class TrainerError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 2e-5
    weight_decay: float = 0.01
    warmup_ratio: float = 0.10
    dropout: float = 0.1
    head_internal_dropout: bool = True
    max_epochs: int = 10
    patience: int = 3
    grad_clip_norm: float = 1.0
    seed: int = 42
    max_len: int = 256

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise TrainerError(f"{f.name} must be finite, got {value}")
        if self.batch_size <= 0 or self.learning_rate <= 0 or self.max_epochs <= 0:
            raise TrainerError("batch_size, learning_rate, and max_epochs must be positive")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise TrainerError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.patience <= 0 or self.patience > self.max_epochs:
            raise TrainerError("patience must satisfy 0 < patience <= max_epochs")
        if not 0.0 <= self.dropout < 1.0:
            raise TrainerError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.weight_decay < 0:
            raise TrainerError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.grad_clip_norm <= 0:
            raise TrainerError("grad_clip_norm must be positive")
        if self.seed < 0 or self.max_len < MIN_MAX_LEN:
            raise TrainerError(f"seed must be >= 0 and max_len >= {MIN_MAX_LEN}, "
                               f"got {self.seed} and {self.max_len}")

    @classmethod
    def from_mapping(cls, mapping) -> "TrainConfig":
        return from_mapping(cls, mapping, "train")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmse_va: float
    grad_norm_mean: float  # pre-clip global gradient norm over the epoch's steps
    grad_norm_max: float
    clipped_frac: float  # share of the epoch's steps whose norm exceeded the clip


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False


class EarlyStopper:
    """Strict-improvement patience counter over a validation metric."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_index = 0
        self.since_improvement = 0
        self._n = 0

    def update(self, value: float) -> bool:
        """Record one epoch's metric; returns True when training should stop."""
        self._n += 1
        if value < self.best:
            self.best = value
            self.best_index = self._n
            self.since_improvement = 0
        else:
            self.since_improvement += 1
        return self.since_improvement >= self.patience


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Piecewise-linear schedule: ramp to peak over the warmup steps, decay to 0."""
    if total_steps < 1:
        raise TrainerError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise TrainerError(f"step {step} outside [0, {total_steps}]")
    warmup = math.ceil(config.warmup_ratio * total_steps)
    if warmup > 0 and step <= warmup:
        return config.learning_rate * step / warmup
    if total_steps == warmup:
        return config.learning_rate
    return config.learning_rate * (total_steps - step) / (total_steps - warmup)


def _substream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), index])


class AdamW:
    """Decoupled-weight-decay Adam over a model's parameters.

    A parameter whose first gradient is compact (TinyEncoder's embedding
    table) is row-sparse: m and v hold one row per row any step's gradient
    has named, in the order first named, and every other row's moments are
    0. Past ADAMW_DENSE_SHARE of the table's rows its moments become whole
    tables, updated densely from then on. Every other parameter's moments
    are whole arrays from the first step.
    """

    def __init__(self, params: dict, config: TrainConfig):
        self.params = params
        self.config = config
        self.m, self.v = {}, {}  # allocated at each parameter's first step
        self.live = {}  # row-sparse name -> its rows that m and v hold, in order
        self.t = 0

    def step(self, grads: dict, lr: float) -> None:
        """One AdamW step; `grads` as loss_and_grads fills it."""
        self.t += 1
        for name, p in self.params.items():
            g = grads[name]
            if name not in self.m:
                self._allocate(name, p, isinstance(g, tuple))
            if name in self.live:
                self._add_rows(name, p, g[0])
            if isinstance(g, tuple):  # scattered into a zero array laid out as the moments
                rows, values = g
                if name in self.live:  # their rows, in their order
                    order = np.argsort(self.live[name])
                    rows = order[np.searchsorted(self.live[name], rows, sorter=order)]
                g = np.zeros(self.m[name].shape)
                g[rows] = values
            # decoupled weight decay on weight matrices/embeddings, not biases
            wd = self.config.weight_decay if p.ndim >= 2 else 0.0
            kernels.adamw_update(
                p, g, self.m[name], self.v[name],
                lr, 0.9, 0.999, 1e-8, wd, self.t,  # beta1, beta2, eps
                live=self.live.get(name),
            )

    def _allocate(self, name, p, row_sparse):
        shape = ((0,) + p.shape[1:]) if row_sparse else p.shape
        self.m[name], self.v[name] = np.zeros(shape), np.zeros(shape)
        if row_sparse:
            self.live[name] = np.empty(0, dtype=np.intp)

    def _add_rows(self, name, p, rows):
        """Give the rows first named this step zero moments; past
        ADAMW_DENSE_SHARE of the rows, make the moments whole tables."""
        new = np.setdiff1d(rows, self.live[name])
        if len(new):
            self.live[name] = np.concatenate([self.live[name], new])
            pad = np.zeros((len(new),) + p.shape[1:])
            self.m[name] = np.concatenate([self.m[name], pad])
            self.v[name] = np.concatenate([self.v[name], pad])
        if len(self.live[name]) > kernels.ADAMW_DENSE_SHARE * len(p):
            live = self.live.pop(name)
            for moments in (self.m, self.v):
                whole = np.zeros(p.shape)
                whole[live] = moments[name]
                moments[name] = whole


def evaluate_rmse(model: DimASRModel, instances, inputs=None) -> float:
    """Joint VA RMSE of the model's predictions; `inputs` as for predict_raw.
    Scored on the label-scale array, the values predict_pairs would hold."""
    return rmse_va(scale_to_va(model.predict_raw(instances, inputs)),
                   [inst.gold for inst in instances])


def fit(
    model: DimASRModel,
    fit_set: Sequence,
    val_set: Sequence,
    config: TrainConfig,
    epoch_callback: Optional[Callable] = None,
):
    """Train `model` in place; returns (model, TrainHistory).

    The model's encoder_inputs() of the fit and val sets are built once per
    fit: token ids, which a trainable encoder encodes for each step's batch
    and each epoch's validation, or the rows of an encoder with no trainable
    parameters, encoded once, which steps and validation only index.

    `epoch_callback(epoch, model, record)` runs after each epoch's validation,
    before any early-stop decision (used for checkpoint streaming and tests).
    """
    if not val_set:
        raise TrainerError("validation set required for early stopping")
    if not fit_set:
        raise TrainerError("empty training set")
    for inst in list(fit_set) + list(val_set):
        if inst.gold is None:
            raise TrainerError(f"instance {inst.key} is missing its gold label")

    steps_per_epoch = math.ceil(len(fit_set) / config.batch_size)
    total_steps = config.max_epochs * steps_per_epoch
    params = model.parameters()
    optimizer = AdamW(params, config)
    dropout_rng = _substream(config.seed, "dropout")
    stopper = EarlyStopper(config.patience)
    history = TrainHistory()
    best_state = None
    step = 0
    try:
        fit_inputs, val_inputs = model.encoder_inputs(fit_set), model.encoder_inputs(val_set)
    except ModelError as exc:
        raise TrainerError(str(exc)) from exc

    for epoch in range(1, config.max_epochs + 1):
        order = _substream(config.seed, "shuffle", epoch).permutation(len(fit_set))
        epoch_loss = 0.0
        norms = []
        for start in range(0, len(fit_set), config.batch_size):
            picked = order[start : start + config.batch_size]
            batch = [fit_set[i] for i in picked]
            grads = dict.fromkeys(params)  # the step's gradients, in parameter order
            try:
                loss = model.loss_and_grads(batch, dropout_rng, grads, fit_inputs, picked)
            except ModelError as exc:
                raise TrainerError(str(exc)) from exc
            if not np.isfinite(loss):
                raise TrainerError(
                    f"non-finite loss {loss} at epoch {epoch}, step {step} "
                    f"(batch keys {[b.key for b in batch[:3]]}...)"
                )
            norms.append(kernels.clip_gradients(list(grads.values()), config.grad_clip_norm))
            step += 1
            optimizer.step(grads, lr_at(step, total_steps, config))
            epoch_loss += loss * len(batch)

        try:
            val_rmse_va = evaluate_rmse(model, val_set, val_inputs)
        except ModelError as exc:
            raise TrainerError(str(exc)) from exc
        if not math.isfinite(val_rmse_va):
            raise TrainerError(f"non-finite validation rmse_va {val_rmse_va} at epoch {epoch}")
        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss / len(fit_set),
            val_rmse_va=val_rmse_va,
            grad_norm_mean=float(np.mean(norms)),
            grad_norm_max=max(norms),
            clipped_frac=sum(n > config.grad_clip_norm for n in norms) / len(norms),
        )
        history.records.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, model, record)

        stop = stopper.update(record.val_rmse_va)
        # a new best never stops a fit, so the best epoch is the last one run
        # only at max_epochs, where the parameters already are the best state:
        # no snapshot is taken there and none is restored below
        if stopper.best_index == epoch < config.max_epochs:
            # one snapshot, refreshed in place: no second copy of the
            # parameters is alive while the new best is taken
            if best_state is None:
                best_state = {k: v.copy() for k, v in params.items()}
            else:
                for k, v in params.items():
                    np.copyto(best_state[k], v)
        if stop:
            history.stopped_early = True
            break

    history.best_epoch = stopper.best_index
    if best_state is not None and history.best_epoch < len(history.records):
        model.load_state(best_state)
    return model, history
