"""Encoder adapters and the dual bounded-regression-head model.

The model encodes a (text, aspect) pair as start-token [CLS]-style vector h,
applies dropout in training mode, and maps h through two independent
two-layer heads (affine -> tanh -> dropout -> affine). Raw head outputs are
squashed onto the label scale with ``sigmoid(raw) * 8 + 1``, so predictions
always lie strictly inside (1, 9).

Two encoder adapters are provided:

* TinyEncoder: a small trainable bag-of-hashed-tokens encoder (embedding
  table, mean pooling, one tanh layer). Deterministic, CPU-cheap, used for
  tests and smoke runs.
* HFEncoder: a pretrained multilingual transformer loaded through the
  `transformers` package (default "xlm-roberta-base"). Optional dependency;
  the backbone is used as a frozen feature extractor in this trainer.
"""

from __future__ import annotations

import json
import re
import zlib
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .data import AspectInstance, VAPair

CHECKPOINT_VERSION = 1
PREDICT_BATCH = 64  # instances per eval-mode forward pass

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
    return [encoder.cls_id] + text_ids + [encoder.sep_id] + aspect_ids + [encoder.sep_id]


class TinyEncoder:
    """Trainable stand-in encoder: hashed embeddings, mean pool, tanh layer."""

    cls_id = 1
    sep_id = 2
    _N_SPECIAL = 3  # pad, cls, sep

    def __init__(self, dim: int = 32, vocab_size: int = 4096, max_len: int = 256, seed: int = 0):
        self.dim = dim
        self.vocab_size = vocab_size
        self.max_len = max_len
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.emb = rng.normal(0.0, 0.5, size=(vocab_size, dim))
        self.W = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, dim))
        self.b = np.zeros(dim)

    @property
    def hidden_dim(self) -> int:
        return self.dim

    def tokenize(self, text: str) -> list:
        toks = _TOKEN_RE.findall(text.lower())
        n = self.vocab_size - self._N_SPECIAL
        return [zlib.crc32(t.encode("utf-8")) % n + self._N_SPECIAL for t in toks]

    def parameters(self) -> dict:
        return {"encoder.emb": self.emb, "encoder.W": self.W, "encoder.b": self.b}

    def encode_batch(self, token_seqs: Sequence[list]):
        n = len(token_seqs)
        P = np.empty((n, self.dim))
        for i, ids in enumerate(token_seqs):
            P[i] = self.emb[ids].mean(axis=0)
        H = np.tanh(P @ self.W.T + self.b)
        return H, (token_seqs, P, H)

    def backward(self, dH: np.ndarray, cache, grads: dict) -> None:
        token_seqs, P, H = cache
        dU = dH * (1.0 - H * H)
        grads["encoder.W"] += dU.T @ P
        grads["encoder.b"] += dU.sum(axis=0)
        dP = dU @ self.W
        demb = grads["encoder.emb"]
        for i, ids in enumerate(token_seqs):
            np.add.at(demb, ids, dP[i] / len(ids))

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
        try:
            import torch
            from transformers import AutoModel, AutoTokenizer
        except ImportError as exc:  # pragma: no cover
            raise ModelError(
                "the pretrained encoder requires the 'hf' extra "
                "(pip install dimasr[hf])"
            ) from exc
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
        return H, None

    def backward(self, dH, cache, grads) -> None:
        pass  # frozen backbone

    def spec(self) -> dict:
        return {"type": "hf", "name": self.name, "max_len": self.max_len}


def make_encoder(spec: dict):
    kind = spec.get("type", "tiny")
    if kind == "tiny":
        return TinyEncoder(
            dim=int(spec.get("dim", 32)),
            vocab_size=int(spec.get("vocab_size", 4096)),
            max_len=int(spec.get("max_len", 256)),
            seed=int(spec.get("seed", 0)),
        )
    if kind == "hf":
        return HFEncoder(name=spec.get("name", "xlm-roberta-base"), max_len=int(spec.get("max_len", 256)))
    raise ModelError(f"unknown encoder type {kind!r}")


class RegressionHead:
    """Two-layer head: affine d -> floor(d/2), tanh, dropout, affine -> 1."""

    def __init__(self, dim: int, rng: np.random.Generator, dropout_rate: float = 0.1,
                 internal_dropout: bool = True):
        hidden = max(dim // 2, 1)
        self.dim = dim
        self.hidden = hidden
        self.dropout_rate = dropout_rate
        self.internal_dropout = internal_dropout
        # small random weights, zero biases
        self.W1 = rng.normal(0.0, 0.02, size=(hidden, dim))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, 0.02, size=hidden)
        self.b2 = np.zeros(1)

    def parameters(self, prefix: str) -> dict:
        return {
            f"{prefix}.W1": self.W1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
        }

    def forward(self, H: np.ndarray, train: bool = False, rng: Optional[np.random.Generator] = None):
        """Raw (pre-sigmoid) outputs for a batch. Returns (z2, cache)."""
        mask = None
        if train and self.internal_dropout and self.dropout_rate > 0.0:
            keep = 1.0 - self.dropout_rate
            mask = (rng.random((H.shape[0], self.hidden)) < keep) / keep
        A1, Z2 = kernels.head_forward(H, self.W1, self.b1, self.w2, float(self.b2[0]), mask)
        return Z2, (H, A1, mask)

    def backward(self, dZ2: np.ndarray, cache, grads: dict, prefix: str) -> np.ndarray:
        """Accumulate parameter gradients; returns dL/dH."""
        H, A1, mask = cache
        dW1, db1, dw2, db2, dH = kernels.head_backward(dZ2, H, A1, self.W1, self.w2, mask)
        grads[f"{prefix}.W1"] += dW1
        grads[f"{prefix}.b1"] += db1
        grads[f"{prefix}.w2"] += dw2
        grads[f"{prefix}.b2"] += db2
        return dH


class DimASRModel:
    """Encoder + input dropout + two independent bounded regression heads."""

    def __init__(self, encoder, seed: int = 42, input_dropout_rate: float = 0.1,
                 head_dropout_rate: float = 0.1, head_internal_dropout: bool = True):
        self.encoder = encoder
        self.input_dropout_rate = input_dropout_rate
        self.seed = seed
        rng = np.random.default_rng(seed)
        d = encoder.hidden_dim
        self.head_v = RegressionHead(d, rng, head_dropout_rate, head_internal_dropout)
        self.head_a = RegressionHead(d, rng, head_dropout_rate, head_internal_dropout)

    def parameters(self) -> dict:
        params = dict(self.encoder.parameters())
        params.update(self.head_v.parameters("head_v"))
        params.update(self.head_a.parameters("head_a"))
        return params

    def _encode(self, batch: Sequence[AspectInstance]):
        seqs = []
        for inst in batch:
            try:
                seqs.append(build_input(inst.text, inst.aspect, self.encoder))
            except Exception as exc:
                raise ModelError(f"instance {inst.key}: {exc}") from exc
        try:
            return self.encoder.encode_batch(seqs)
        except ModelError:
            raise
        except Exception as exc:
            keys = [inst.key for inst in batch]
            raise ModelError(f"encoder failed on batch {keys[:3]}...: {exc}") from exc

    def predict_raw(self, instances: Sequence[AspectInstance]) -> np.ndarray:
        """Eval-mode raw head outputs, shape (n, 2), PREDICT_BATCH instances per
        forward pass. Deterministic."""
        if not instances:
            raise ModelError("batch must be non-empty")
        chunks = []
        for start in range(0, len(instances), PREDICT_BATCH):
            H, _ = self._encode(instances[start : start + PREDICT_BATCH])
            zv, _ = self.head_v.forward(H)
            za, _ = self.head_a.forward(H)
            chunks.append(np.stack([zv, za], axis=1))
        return np.concatenate(chunks)

    def predict_pairs(self, instances: Sequence[AspectInstance]) -> list:
        return [VAPair(float(v), float(a)) for v, a in scale_to_va(self.predict_raw(instances))]

    def loss_and_grads(self, batch: Sequence[AspectInstance], rng: np.random.Generator,
                       grads: dict):
        """Training-mode forward/backward. Returns (loss, grads, preds array (n,2)).

        `grads` is a buffer shaped like parameters(); it is zeroed and filled in
        place, so a training loop reuses one across steps.
        """
        golds = []
        for inst in batch:
            if inst.gold is None:
                raise ModelError(f"instance {inst.key} has no gold label")
            golds.append((inst.gold.valence, inst.gold.arousal))
        gold = np.asarray(golds)
        n = len(batch)

        H, enc_cache = self._encode(batch)
        mask_in = None
        Hd = H
        if self.input_dropout_rate > 0.0:
            keep = 1.0 - self.input_dropout_rate
            mask_in = (rng.random(H.shape) < keep) / keep
            Hd = H * mask_in

        zv, cache_v = self.head_v.forward(Hd, train=True, rng=rng)
        za, cache_a = self.head_a.forward(Hd, train=True, rng=rng)
        sv = kernels.sigmoid(zv)
        sa = kernels.sigmoid(za)
        pred = np.stack([sv * 8.0 + 1.0, sa * 8.0 + 1.0], axis=1)

        dv = pred[:, 0] - gold[:, 0]
        da = pred[:, 1] - gold[:, 1]
        loss = float(np.mean(dv**2) + np.mean(da**2))

        for g in grads.values():
            g.fill(0.0)
        dzv = (2.0 / n) * dv * 8.0 * sv * (1.0 - sv)
        dza = (2.0 / n) * da * 8.0 * sa * (1.0 - sa)
        dHd = self.head_v.backward(dzv, cache_v, grads, "head_v")
        dHd = dHd + self.head_a.backward(dza, cache_a, grads, "head_a")
        dH = dHd if mask_in is None else dHd * mask_in
        self.encoder.backward(dH, enc_cache, grads)
        return loss, grads, pred

    # -- checkpointing --------------------------------------------------

    def manifest(self) -> dict:
        return {
            "format_version": CHECKPOINT_VERSION,
            "encoder": self.encoder.spec(),
            "hidden_dim": self.encoder.hidden_dim,
            "max_len": self.encoder.max_len,
            "input_dropout_rate": self.input_dropout_rate,
            "head_dropout_rate": self.head_v.dropout_rate,
            "head_internal_dropout": self.head_v.internal_dropout,
            "seed": self.seed,
        }

    def state_arrays(self) -> dict:
        return {k: np.asarray(v) for k, v in self.parameters().items()}

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


def save_checkpoint(model: DimASRModel, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "manifest.json").write_text(json.dumps(model.manifest(), indent=2), encoding="utf-8")
    np.savez(path / "params.npz", **model.state_arrays())


def load_checkpoint(path, expected_hidden_dim: Optional[int] = None) -> DimASRModel:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise ModelError(f"no checkpoint manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise ModelError(
            f"checkpoint format version {manifest.get('format_version')} "
            f"!= supported {CHECKPOINT_VERSION}"
        )
    if expected_hidden_dim is not None and manifest["hidden_dim"] != expected_hidden_dim:
        raise ModelError(
            f"hidden_dim mismatch: checkpoint has {manifest['hidden_dim']}, "
            f"config expects {expected_hidden_dim}"
        )
    encoder = make_encoder(manifest["encoder"])
    model = DimASRModel(
        encoder,
        seed=manifest.get("seed", 42),
        input_dropout_rate=manifest["input_dropout_rate"],
        head_dropout_rate=manifest["head_dropout_rate"],
        head_internal_dropout=manifest["head_internal_dropout"],
    )
    with np.load(path / "params.npz") as npz:
        model.load_state({k: npz[k] for k in npz.files})
    return model
