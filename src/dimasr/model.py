"""Encoder adapters and the dual bounded-regression-head model.

The model encodes a (text, aspect) pair as start-token [CLS]-style vector h,
applies dropout in training mode, and maps h through two independent
two-layer heads (affine -> tanh -> dropout -> affine), held as one stacked
block. Raw head outputs are squashed onto the label scale with
``sigmoid(raw) * 8 + 1``, so predictions always lie strictly inside (1, 9).

Two encoder adapters are provided:

* TinyEncoder: a small trainable bag-of-hashed-tokens encoder (embedding
  table, mean pooling, one tanh layer). Deterministic, CPU-cheap, used for
  tests and smoke runs.
* HFEncoder: a pretrained multilingual transformer loaded through the
  `transformers` package (default "xlm-roberta-base"). Optional dependency;
  the backbone is used as a frozen feature extractor in this trainer.
"""

from __future__ import annotations

import functools
import re
import types
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .data import (AspectInstance, ConfigError, DataError, MissingDependencyError, VAPair,
                   from_mapping, read_json, write_json)

CHECKPOINT_VERSION = 1
PREDICT_BATCH = 64  # instances per eval-mode forward pass
MIN_MAX_LEN = 4  # the shortest input: [CLS] [SEP] a [SEP]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class ModelError(RuntimeError):
    pass


# one ulp inside (0, 1): float64 sigmoid saturates to exactly 0/1 for |x| > ~37,
# which would land predictions on the closed bounds
_SIG_LO = 2.0**-50
_SIG_HI = 1.0 - 2.0**-50


def scale_to_va(raw):
    """Map raw head outputs (a scalar or an array) onto the (1, 9) label scale:
    sigmoid(raw) * 8 + 1."""
    return np.clip(kernels.sigmoid(np.asarray(raw, np.float64)), _SIG_LO, _SIG_HI) * 8.0 + 1.0


def build_input(text: str, aspect: str, encoder) -> list:
    """Token ids: start token, text, separator, aspect, separator.

    When the sequence exceeds the encoder's max_len, only text tokens are
    dropped (from the tail); the aspect segment is always kept whole.
    """
    if not aspect:
        raise ModelError("aspect must be non-empty")
    aspect_ids = encoder.tokenize(aspect)
    budget = encoder.max_len - 3 - len(aspect_ids)
    if budget < 0:
        raise ModelError(
            f"aspect {aspect!r} occupies {len(aspect_ids)} tokens; "
            f"with specials it exceeds max_len={encoder.max_len}"
        )
    text_ids = encoder.tokenize(text)[:budget]
    return [encoder.cls_id, *text_ids, encoder.sep_id, *aspect_ids, encoder.sep_id]


class _HashedVocab(dict):
    """Token -> id for TinyEncoder, filled on first sight of a token with the
    hash formula (crc32 of its UTF-8 bytes, folded into the non-special ids).
    A cache of a pure function: it holds no state a checkpoint needs."""

    def __init__(self, n_hashed: int):
        super().__init__()
        self.n_hashed = n_hashed

    def __missing__(self, token: str) -> int:
        token_id = zlib.crc32(token.encode("utf-8")) % self.n_hashed + TinyEncoder._N_SPECIAL
        self[token] = token_id
        return token_id


class TinyEncoder:
    """Trainable stand-in encoder: hashed embeddings, mean pool, tanh layer."""

    cls_id = 1
    sep_id = 2
    _N_SPECIAL = 3  # pad, cls, sep

    def __init__(self, dim: int = 32, vocab_size: int = 4096, max_len: int = 256, seed: int = 0):
        if dim < 1 or vocab_size <= self._N_SPECIAL or max_len < MIN_MAX_LEN or seed < 0:
            raise ModelError(f"tiny encoder needs dim >= 1, vocab_size > {self._N_SPECIAL}, "
                             f"max_len >= {MIN_MAX_LEN} and seed >= 0, "
                             f"got {dim}, {vocab_size}, {max_len} and {seed}")
        self.dim = dim
        self.vocab_size = vocab_size
        self.max_len = max_len
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.emb = rng.normal(0.0, 0.5, size=(vocab_size, dim))
        self.W = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, dim))
        self.b = np.zeros(dim)
        self._vocab = _HashedVocab(vocab_size - self._N_SPECIAL)

    @property
    def hidden_dim(self) -> int:
        return self.dim

    def tokenize(self, text: str) -> list:
        return list(map(self._vocab.__getitem__, _TOKEN_RE.findall(text.lower())))

    def parameters(self) -> dict:
        return {"encoder.emb": self.emb, "encoder.W": self.W, "encoder.b": self.b}

    def encode_batch(self, token_seqs: Sequence[list]):
        n = len(token_seqs)
        P = np.empty((n, self.dim))
        # the sum and the one division that .mean(axis=0) makes, in its order
        for i, ids in enumerate(token_seqs):
            np.add.reduce(self.emb[ids], axis=0, out=P[i])
        P /= np.fromiter(map(len, token_seqs), np.float64, n)[:, None]
        H = np.tanh(P @ self.W.T + self.b)
        return H, (token_seqs, P, H)

    def backward(self, dH: np.ndarray, cache, grads: dict) -> None:
        """Store the encoder's gradients in `grads`. The table's is compact:
        (the batch's sorted unique token ids, their (k, dim) gradient rows);
        every other row is 0. One np.add.at over the batch's ids in order
        sums each row as a per-instance loop into a zero table would."""
        token_seqs, P, H = cache
        dU = dH * (1.0 - H * H)
        grads["encoder.W"] = dU.T @ P
        grads["encoder.b"] = dU.sum(axis=0)
        dP = dU @ self.W
        lens = np.fromiter(map(len, token_seqs), np.intp, len(token_seqs))
        rows, at = np.unique(np.concatenate(token_seqs), return_inverse=True)
        values = np.zeros((len(rows), self.dim))
        np.add.at(values, at, np.repeat(dP / lens[:, None], lens, axis=0))
        grads["encoder.emb"] = (rows, values)

    def spec(self) -> dict:
        return {
            "type": "tiny",
            "dim": self.dim,
            "vocab_size": self.vocab_size,
            "max_len": self.max_len,
            "seed": self.seed,
        }


class HFEncoder:
    """Pretrained transformer backbone via `transformers` (frozen features)."""

    def __init__(self, name: str = "xlm-roberta-base", max_len: int = 256):
        if max_len < MIN_MAX_LEN:
            raise ModelError(f"max_len must be >= {MIN_MAX_LEN}, got {max_len}")
        try:
            import torch
            from transformers import AutoModel, AutoTokenizer
        except ImportError as exc:
            raise MissingDependencyError("the pretrained encoder requires the 'hf' extra "
                                         "(pip install dimasr[hf])") from exc
        self._torch = torch
        self.name = name
        self.max_len = max_len
        self._tokenizer = AutoTokenizer.from_pretrained(name)
        self._model = AutoModel.from_pretrained(name)
        self._model.eval()
        self.cls_id = self._tokenizer.cls_token_id
        self.sep_id = self._tokenizer.sep_token_id

    @property
    def hidden_dim(self) -> int:
        return self._model.config.hidden_size

    def tokenize(self, text: str) -> list:
        return self._tokenizer.encode(text, add_special_tokens=False)

    def parameters(self) -> dict:
        return {}

    def encode_batch(self, token_seqs: Sequence[list]):
        torch = self._torch
        pad = self._tokenizer.pad_token_id or 0
        width = max(len(s) for s in token_seqs)
        ids = torch.full((len(token_seqs), width), pad, dtype=torch.long)
        mask = torch.zeros((len(token_seqs), width), dtype=torch.long)
        for i, seq in enumerate(token_seqs):
            ids[i, : len(seq)] = torch.tensor(seq, dtype=torch.long)
            mask[i, : len(seq)] = 1
        with torch.no_grad():
            out = self._model(input_ids=ids, attention_mask=mask)
        H = out.last_hidden_state[:, 0, :].numpy().astype(np.float64)
        return H, None  # frozen backbone: no backward pass

    def spec(self) -> dict:
        return {"type": "hf", "name": self.name, "max_len": self.max_len}


def make_encoder(spec: dict):
    """The encoder a spec names: its "type" (default "tiny") picks the class."""
    settings = dict(spec)
    kind = settings.pop("type", "tiny")
    if kind not in ("tiny", "hf"):
        raise ConfigError(f"unknown encoder type {kind!r}")
    return from_mapping(TinyEncoder if kind == "tiny" else HFEncoder, settings, "encoder")


class RegressionHead:
    """The valence and arousal heads as one stack, each a two-layer head:
    affine d -> floor(d/2), tanh, dropout, affine -> 1. Index 0 of every
    array is valence, index 1 arousal."""

    def __init__(self, dim: int, rng: np.random.Generator, dropout_rate: float = 0.1,
                 internal_dropout: bool = True):
        hidden = max(dim // 2, 1)
        self.hidden = hidden
        self.dropout_rate = dropout_rate
        self.internal_dropout = internal_dropout
        # small random weights, zero biases; drawn head by head
        self.W1 = np.empty((2, hidden, dim))
        self.b1 = np.zeros((2, hidden))
        self.w2 = np.empty((2, hidden))
        self.b2 = np.zeros((2, 1))
        for k in range(2):
            self.W1[k] = rng.normal(0.0, 0.02, size=(hidden, dim))
            self.w2[k] = rng.normal(0.0, 0.02, size=hidden)

    @staticmethod
    def _per_head(W1, b1, w2, b2) -> dict:
        """Views of each head's slice of four stacks, under the checkpoint names
        head_v.W1 ... head_a.b2. Per-head biases stay 1-D, so AdamW leaves them
        out of weight decay."""
        return {f"{prefix}.{name}": stack[k]
                for k, prefix in enumerate(("head_v", "head_a"))
                for name, stack in zip(("W1", "b1", "w2", "b2"), (W1, b1, w2, b2))}

    def parameters(self) -> dict:
        return self._per_head(self.W1, self.b1, self.w2, self.b2)

    def forward(self, H: np.ndarray, train: bool = False, rng: Optional[np.random.Generator] = None):
        """Raw (pre-sigmoid) outputs (2, n) for a batch. Returns (Z2, cache)."""
        mask = None
        if train and self.internal_dropout and self.dropout_rate > 0.0:
            keep = 1.0 - self.dropout_rate
            mask = (rng.random((2, H.shape[0], self.hidden)) < keep) / keep
        A1, Z2 = kernels.head_forward(H, self.W1, self.b1, self.w2, self.b2, mask)
        return Z2, (H, A1, mask)

    def backward(self, dZ2: np.ndarray, cache, grads: dict,
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """Store the parameter gradients in `grads`; returns dL/dH summed over
        both heads, or None when `input_grad` is false."""
        H, A1, mask = cache
        dW1, db1, dw2, db2, dH = kernels.head_backward(dZ2, H, A1, self.W1, self.w2, mask,
                                                       input_grad)
        grads.update(self._per_head(dW1, db1, dw2, db2))
        return dH


class _RowBlocks(list):
    """A set's cached encoder rows, one array per PREDICT_BATCH instances. As
    one set-sized array they raised train-frozen's peak RSS by 2.6 MB."""


class DimASRModel:
    """Encoder + input dropout + the stacked valence/arousal regression heads."""

    def __init__(self, encoder, seed: int = 42, input_dropout_rate: float = 0.1,
                 head_dropout_rate: float = 0.1, head_internal_dropout: bool = True):
        if seed < 0:
            raise ModelError(f"seed must be >= 0, got {seed}")
        self.encoder = encoder
        self.input_dropout_rate = input_dropout_rate
        self.seed = seed
        rng = np.random.default_rng(seed)
        d = encoder.hidden_dim
        self.head = RegressionHead(d, rng, head_dropout_rate, head_internal_dropout)

    def parameters(self) -> dict:
        params = dict(self.encoder.parameters())
        params.update(self.head.parameters())
        return params

    def token_ids(self, instances: Sequence[AspectInstance]) -> list:
        """build_input's token ids for each instance, in order. Each distinct
        text and aspect is tokenized once per call."""
        enc = self.encoder
        memo = types.SimpleNamespace(tokenize=functools.cache(enc.tokenize), max_len=enc.max_len,
                                     cls_id=enc.cls_id, sep_id=enc.sep_id)
        seqs = []
        for inst in instances:
            try:
                seqs.append(build_input(inst.text, inst.aspect, memo))
            except Exception as exc:
                raise ModelError(f"instance {inst.key}: {exc}") from exc
        return seqs

    def encoder_inputs(self, instances: Sequence[AspectInstance]):
        """What encode() takes for a set: its token ids, or, behind an encoder
        with no trainable parameters, whose outputs never change, its encoder
        rows, encoded once in the PREDICT_BATCH chunks predict_raw runs."""
        ids = self.token_ids(instances)
        if self.encoder.parameters():
            return ids
        return _RowBlocks(self._chunks(instances, ids))

    def encode(self, batch: Sequence[AspectInstance], inputs, picked):
        """(H, backward cache or None) for the positions `picked` of a set's
        encoder_inputs(); `batch` is the set's instances at those positions.
        Cached rows have no backward cache, and neither has HFEncoder."""
        if isinstance(inputs, _RowBlocks):
            return np.stack([inputs[i // PREDICT_BATCH][i % PREDICT_BATCH] for i in picked]), None
        try:
            return self.encoder.encode_batch([inputs[i] for i in picked])
        except Exception as exc:
            keys = [inst.key for inst in batch]
            raise ModelError(f"encoder failed on batch {keys[:3]}...: {exc}") from exc

    def _chunks(self, instances, inputs):
        """encode()'s rows for each PREDICT_BATCH instances of a set, in order."""
        for start in range(0, len(instances), PREDICT_BATCH):
            chunk = range(start, min(start + PREDICT_BATCH, len(instances)))
            yield self.encode(instances[start:chunk.stop], inputs, chunk)[0]

    def predict_raw(self, instances: Sequence[AspectInstance], inputs=None) -> np.ndarray:
        """Eval-mode raw head outputs, shape (n, 2), PREDICT_BATCH instances per
        forward pass. Deterministic. `inputs` is encoder_inputs(instances),
        computed once by the caller; by default the token ids, encoded chunk
        by chunk."""
        if not instances:
            raise ModelError("batch must be non-empty")
        if inputs is None:
            inputs = self.token_ids(instances)
        chunks = self._chunks(instances, inputs)
        return np.concatenate([self.head.forward(H)[0].T for H in chunks])

    def predict_pairs(self, instances: Sequence[AspectInstance], inputs=None) -> list:
        raw = self.predict_raw(instances, inputs)
        return [VAPair(v, a) for v, a in scale_to_va(raw).tolist()]

    def loss_and_grads(self, batch: Sequence[AspectInstance], rng: np.random.Generator,
                       grads: dict, inputs, picked) -> float:
        """Training-mode forward/backward. Returns the loss: the sum over valence
        and arousal of the mean squared error on the label scale.

        `inputs` is encoder_inputs() of the set `batch` was drawn from, and
        `picked` the batch's positions in it. The backward passes store each
        trainable parameter's gradient in `grads` under its name, replacing
        what it held: an array shaped like the parameter, or TinyEncoder's
        compact table gradient. The encoder runs backward only when encode()
        gives a backward cache.
        """
        golds = []
        for inst in batch:
            if inst.gold is None:
                raise ModelError(f"instance {inst.key} has no gold label")
            golds.append((inst.gold.valence, inst.gold.arousal))
        gold = np.asarray(golds).T  # (2, n), like the head outputs
        n = len(batch)

        H, enc_cache = self.encode(batch, inputs, picked)
        mask_in = None
        Hd = H
        if self.input_dropout_rate > 0.0:
            keep = 1.0 - self.input_dropout_rate
            mask_in = (rng.random(H.shape) < keep) / keep
            Hd = H * mask_in

        z, head_cache = self.head.forward(Hd, train=True, rng=rng)
        s = kernels.sigmoid(z)
        diff = (s * 8.0 + 1.0) - gold
        # one mean per head row, then their sum: each row sums as a 1-D array would
        loss = float(np.mean(diff**2, axis=1).sum())

        dz = (2.0 / n) * diff * 8.0 * s * (1.0 - s)
        dHd = self.head.backward(dz, head_cache, grads, input_grad=enc_cache is not None)
        if enc_cache is not None:
            dH = dHd if mask_in is None else dHd * mask_in
            self.encoder.backward(dH, enc_cache, grads)
        return loss

    # -- checkpointing --------------------------------------------------

    def load_state(self, arrays: dict) -> None:
        params = self.parameters()
        for name, value in params.items():
            if name not in arrays:
                raise ModelError(f"checkpoint missing parameter {name!r}")
            if arrays[name].shape != value.shape:
                raise ModelError(
                    f"parameter {name!r} shape mismatch: checkpoint "
                    f"{arrays[name].shape} vs model {value.shape}"
                )
            value[...] = arrays[name]


@dataclass
class CheckpointManifest:
    """A checkpoint's manifest.json: what load_checkpoint rebuilds the model from."""

    format_version: int
    encoder: dict  # the encoder's spec(): its "type" and its settings
    hidden_dim: int
    max_len: int
    input_dropout_rate: float
    head_dropout_rate: float
    head_internal_dropout: bool
    seed: int


def save_checkpoint(model: DimASRModel, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = CheckpointManifest(
        CHECKPOINT_VERSION, model.encoder.spec(), model.encoder.hidden_dim, model.encoder.max_len,
        model.input_dropout_rate, model.head.dropout_rate, model.head.internal_dropout, model.seed)
    write_json(path / "manifest.json", asdict(manifest))
    np.savez(path / "params.npz", **model.parameters())


def load_checkpoint(path) -> DimASRModel:
    """The model a checkpoint directory holds; a malformed manifest is a DataError naming it."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"{manifest_path}: not found; not a checkpoint directory")
    manifest = read_json(manifest_path)
    try:
        # the manifest.json of another command (prepare, train, ...) has no format_version
        if isinstance(manifest, dict) and manifest.get("format_version") != CHECKPOINT_VERSION:
            raise ModelError(f"checkpoint format version {manifest.get('format_version')!r} "
                             f"!= supported {CHECKPOINT_VERSION}")
        manifest = from_mapping(CheckpointManifest, manifest, "checkpoint")
        model = DimASRModel(make_encoder(manifest.encoder), seed=manifest.seed,
                            input_dropout_rate=manifest.input_dropout_rate,
                            head_dropout_rate=manifest.head_dropout_rate,
                            head_internal_dropout=manifest.head_internal_dropout)
        built = (model.encoder.hidden_dim, model.encoder.max_len)
        if built != (manifest.hidden_dim, manifest.max_len):
            raise ModelError(f"(hidden_dim, max_len) must be the encoder's {built}")
    except (ConfigError, ModelError) as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
    params_path = path / "params.npz"
    try:
        # np.load leaks the file it opened when the zip is damaged; this one is closed
        with open(params_path, "rb") as fh, np.load(fh) as npz:
            arrays = {name: npz[name] for name in npz.files}
        unknown = sorted(set(arrays) - set(model.parameters()))
        if unknown:
            raise ModelError(f"unknown parameters {unknown}")
        for name, value in arrays.items():
            if value.dtype != np.float64:
                raise ModelError(f"parameter {name!r} must be float64, got {value.dtype}")
            if not np.isfinite(value).all():
                raise ModelError(f"parameter {name!r} holds NaN or infinity")
        model.load_state(arrays)  # checks that no name is missing and each shape
    # a damaged file raises BadZipFile, OSError, ValueError, NotImplementedError,
    # RuntimeError, tokenize.TokenError, ...: each is the file's fault
    except Exception as exc:
        raise DataError(f"{params_path}: {exc}") from None
    return model
