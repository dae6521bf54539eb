import copy
import math
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimasr.data import AspectInstance, ConfigError, DataError, VAPair
from dimasr.model import (
    DimASRModel,
    ModelError,
    RegressionHead,
    TinyEncoder,
    build_input,
    load_checkpoint,
    make_encoder,
    save_checkpoint,
    scale_to_va,
)
from .conftest import make_instances


@pytest.fixture
def tiny_model():
    return DimASRModel(TinyEncoder(dim=32, seed=0), seed=42)


class TestScaleToVa:
    def test_zero_maps_to_midpoint(self):
        assert scale_to_va(0.0) == 5.0

    def test_saturation(self):
        assert scale_to_va(20.0) > 8.999
        assert scale_to_va(-20.0) < 1.001

    def test_analytic_anchor(self):
        # sigmoid(ln 15) = 15/16 = 0.9375, so the scaled value is 8.5
        assert scale_to_va(math.log(15.0)) == pytest.approx(8.5, abs=1e-12)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_bounded_and_symmetric(self, x):
        y = scale_to_va(x)
        assert 1.0 < y < 9.0
        assert scale_to_va(x) + scale_to_va(-x) == pytest.approx(10.0, abs=1e-9)

    def test_monotone(self):
        xs = np.linspace(-30, 30, 500)
        ys = scale_to_va(xs)
        assert np.all(np.diff(ys) > 0)


class TestBuildInput:
    def test_two_separators(self):
        enc = TinyEncoder(dim=8)
        seq = build_input("the food was absolutely amazing!", "food", enc)
        assert seq[0] == enc.cls_id
        assert seq.count(enc.sep_id) == 2
        assert seq[-1] == enc.sep_id

    def test_truncates_text_only(self):
        enc = TinyEncoder(dim=8, max_len=16)
        long_text = " ".join(f"word{i}" for i in range(10000))
        aspect = "food"
        seq = build_input(long_text, aspect, enc)
        assert len(seq) == 16
        # aspect tokens sit intact before the final separator
        assert seq[-2] == enc.tokenize(aspect)[0]

    def test_empty_text_ok(self):
        enc = TinyEncoder(dim=8)
        seq = build_input("", "food", enc)
        assert len(seq) == 4  # cls, sep, aspect, sep

    def test_empty_aspect_rejected(self):
        with pytest.raises(ModelError, match="aspect"):
            build_input("text", "", TinyEncoder(dim=8))

    def test_aspect_too_long(self):
        enc = TinyEncoder(dim=8, max_len=8)
        with pytest.raises(ModelError, match="max_len"):
            build_input("t", " ".join(f"a{i}" for i in range(10)), enc)


def crc32_ids(text, vocab_size):
    """The tiny encoder's token ids by its formula, with no memo."""
    return [zlib.crc32(t.encode("utf-8")) % (vocab_size - 3) + 3
            for t in re.findall(r"\w+|[^\w\s]", text.lower())]


# words of Latin letters, CJK runs, digits and punctuation, joined by spaces
_words = st.text(st.sampled_from("abcXYZé服务菜很好0123!?,.'-"), min_size=1, max_size=5)
_texts = st.lists(_words, max_size=12).map(" ".join)


class TestTokenIds:
    @settings(max_examples=60, deadline=None)
    @given(sentences=st.lists(st.tuples(_texts, st.lists(_words, min_size=1, max_size=3)),
                              min_size=1, max_size=5))
    def test_equals_build_input_per_instance(self, sentences):
        # an aspect is one word of at most 5 tokens, so it always fits in
        # max_len 12, which leaves a text 4 to 8 tokens before truncating it;
        # each sentence repeats its text over its aspects
        instances = [AspectInstance(f"s{i}", k, text, aspect)
                     for i, (text, aspects) in enumerate(sentences)
                     for k, aspect in enumerate(aspects)]
        model = DimASRModel(TinyEncoder(dim=4, max_len=12, seed=0), seed=0)
        fresh = TinyEncoder(dim=4, max_len=12, seed=0)
        assert model.token_ids(instances) == [build_input(i.text, i.aspect, fresh)
                                              for i in instances]

    def test_tokenizes_each_distinct_text_and_aspect_once(self, tiny_model, monkeypatch):
        seen = []
        tokenize = tiny_model.encoder.tokenize
        monkeypatch.setattr(tiny_model.encoder, "tokenize",
                            lambda text: seen.append(text) or tokenize(text))
        instances = [AspectInstance("s1", k, "great screen, poor battery.", a)
                     for k, a in enumerate(("screen", "battery"))]
        instances += [AspectInstance("s2", 0, "the screen is dim", "screen")]
        tiny_model.token_ids(instances)
        assert sorted(seen) == sorted({i.text for i in instances} | {i.aspect for i in instances})

    def test_names_the_instance_that_fails(self):
        model = DimASRModel(TinyEncoder(dim=4, max_len=8, seed=0), seed=0)
        bad = AspectInstance("s9", 2, "t", " ".join(f"a{i}" for i in range(10)))
        with pytest.raises(ModelError, match=r"instance \('s9', 2\): .*max_len"):
            model.token_ids(make_instances(2) + [bad])


class TestTinyEncoder:
    TEXTS = ("The food was AMAZING!", "服务很周到，菜也很新鲜。", "ça va... (2x)", "", "food food")

    def test_memoized_tokenize_equals_formula(self):
        enc = TinyEncoder(dim=4, vocab_size=97, seed=0)
        for _ in range(2):  # the second pass reads every token from the memo
            assert [enc.tokenize(t) for t in self.TEXTS] == [crc32_ids(t, 97) for t in self.TEXTS]
        twin = copy.deepcopy(enc)
        more = self.TEXTS + ("unseen words, after the copy",)
        assert [twin.tokenize(t) for t in more] == [crc32_ids(t, 97) for t in more]

    def test_memo_is_not_state(self, tmp_path):
        enc = TinyEncoder(dim=4, vocab_size=97, seed=0)
        enc.tokenize("fills the memo")
        assert enc.spec() == TinyEncoder(dim=4, vocab_size=97, seed=0).spec()
        assert set(enc.parameters()) == {"encoder.emb", "encoder.W", "encoder.b"}
        model = DimASRModel(enc, seed=0)
        save_checkpoint(model, tmp_path / "ckpt")
        with np.load(tmp_path / "ckpt" / "params.npz") as npz:
            assert sorted(npz.files) == sorted(model.parameters())

    @pytest.mark.parametrize("d", [1, 32, 256])
    def test_pooling_equals_mean(self, d):
        enc = TinyEncoder(dim=d, vocab_size=512, seed=d)
        rng = np.random.default_rng(d)
        seqs = [list(rng.integers(0, 512, size=n)) for n in (1, 2, 3, 7, 64, 255, 256)]
        _, (_, P, _) = enc.encode_batch(seqs)
        assert np.array_equal(P, np.stack([enc.emb[ids].mean(axis=0) for ids in seqs]))


class TestForward:
    def test_eval_deterministic(self, tiny_model):
        batch = make_instances(4)
        assert tiny_model.predict_pairs(batch) == tiny_model.predict_pairs(batch)

    def test_zeroed_final_layer_predicts_midpoint(self, tiny_model):
        tiny_model.head.w2[:] = 0.0
        tiny_model.head.b2[:] = 0.0
        for pair in tiny_model.predict_pairs(make_instances(5)):
            assert pair == VAPair(5.0, 5.0)

    def test_batch_shape(self, tiny_model):
        batch = make_instances(7)
        assert len(tiny_model.predict_pairs(batch)) == 7

    def test_bounded(self, tiny_model):
        for pair in tiny_model.predict_pairs(make_instances(16)):
            assert 1.0 < pair.valence < 9.0
            assert 1.0 < pair.arousal < 9.0

    def test_head_independence(self, tiny_model):
        batch = make_instances(6)
        before = [p.valence for p in tiny_model.predict_pairs(batch)]
        tiny_model.head.W1[1] += 0.37  # arousal
        tiny_model.head.w2[1] += 1.1
        after = tiny_model.predict_pairs(batch)
        assert [p.valence for p in after] == before
        # and perturbing valence leaves arousal untouched
        arousal_before = [p.arousal for p in after]
        tiny_model.head.W1[0] -= 0.8
        assert [p.arousal for p in tiny_model.predict_pairs(batch)] == arousal_before

    def test_empty_batch_rejected(self, tiny_model):
        with pytest.raises(ModelError):
            tiny_model.predict_raw([])

    def test_missing_gold_rejected(self, tiny_model):
        inst = AspectInstance("x", 0, "text", "aspect", None)
        with pytest.raises(ModelError, match="gold"):
            tiny_model.loss_and_grads([inst], np.random.default_rng(0), {},
                                      tiny_model.encoder_inputs([inst]), range(1))


def head_gradient_check(d, seed, internal_dropout=False, dropout_rate=0.0):
    """Relative error between analytic and central-difference gradients of the
    summed per-head mean squared scaled output, over every parameter of both
    stacked heads on a fixed input batch. With a dropout rate the heads run in
    training mode, drawing the same dropout mask on every pass from a freshly
    seeded generator."""
    rng = np.random.default_rng(seed)
    head = RegressionHead(d, rng, dropout_rate=dropout_rate, internal_dropout=internal_dropout)
    H = rng.normal(size=(5, d))
    gold = rng.uniform(2.0, 8.0, size=(2, 5))
    stacks = (head.W1, head.b1, head.w2, head.b2)

    def forward():
        return head.forward(H, train=dropout_rate > 0.0, rng=np.random.default_rng(seed + 100))

    def loss_of(params):
        for stack, value in zip(stacks, params):
            stack[...] = value
        z, _ = forward()
        pred = 1.0 / (1.0 + np.exp(-z)) * 8.0 + 1.0
        return float(np.sum(np.mean((pred - gold) ** 2, axis=1)))

    # analytic
    z, cache = forward()
    mask = cache[2]
    assert (mask is not None) == (dropout_rate > 0.0 and internal_dropout)
    assert mask is None or (mask == 0.0).any()
    s = 1.0 / (1.0 + np.exp(-z))
    pred = s * 8.0 + 1.0
    dz = (2.0 / H.shape[0]) * (pred - gold) * 8.0 * s * (1.0 - s)
    grads = {k: np.zeros_like(v) for k, v in head.parameters().items()}
    head.backward(dz, cache, grads)
    analytic = np.concatenate([
        np.stack([grads[f"{prefix}.{n}"] for prefix in ("head_v", "head_a")]).ravel()
        for n in ("W1", "b1", "w2", "b2")])

    params = [p.copy() for p in stacks]
    flat = np.concatenate([p.ravel() for p in params])
    numeric = np.zeros_like(flat)
    eps = 1e-4

    def unflatten(vec):
        out, at = [], 0
        for p in params:
            out.append(vec[at : at + p.size].reshape(p.shape))
            at += p.size
        return out

    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += eps
        down[i] -= eps
        numeric[i] = (loss_of(unflatten(up)) - loss_of(unflatten(down))) / (2 * eps)
    loss_of(unflatten(flat))  # restore
    denom = max(np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


class TestGradients:
    def test_head_gradcheck(self):
        for seed in range(5):
            assert head_gradient_check(8, seed) < 1e-4

    def test_head_gradcheck_with_dropout_mask(self):
        for seed in range(5):
            assert head_gradient_check(8, seed, internal_dropout=True, dropout_rate=0.3) < 1e-4

    def test_full_model_gradcheck(self):
        # finite differences through encoder + both heads (dropout off)
        enc = TinyEncoder(dim=6, vocab_size=64, seed=1)
        model = DimASRModel(enc, seed=2, input_dropout_rate=0.0, head_dropout_rate=0.0)
        batch = make_instances(3, seed=5)
        rng = np.random.default_rng(0)
        grads = {}
        inputs = model.encoder_inputs(batch)
        model.loss_and_grads(batch, rng, grads, inputs, range(3))
        # the table's gradient is compact: the batch's sorted token ids and their rows
        rows, values = grads["encoder.emb"]
        assert np.array_equal(rows, np.unique(np.concatenate(inputs)))
        assert values.shape == (len(rows), 6)
        grads["encoder.emb"] = np.zeros_like(model.encoder.emb)
        grads["encoder.emb"][rows] = values
        scratch = {}
        params = model.parameters()
        eps = 1e-5
        for name in ("encoder.W", "head_v.W1", "head_a.w2", "encoder.emb"):
            p = params[name]
            idx = tuple(0 for _ in p.shape)
            # pick an embedding row that is actually used
            if name == "encoder.emb":
                used = model.encoder.tokenize(batch[0].text)[0]
                idx = (used, 0)
            orig = p[idx]
            p[idx] = orig + eps
            up = model.loss_and_grads(batch, np.random.default_rng(0), scratch, inputs, range(3))
            p[idx] = orig - eps
            down = model.loss_and_grads(batch, np.random.default_rng(0), scratch, inputs,
                                        range(3))
            p[idx] = orig
            numeric = (up - down) / (2 * eps)
            assert grads[name][idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


class TestCheckpoint:
    def test_round_trip(self, tiny_model, tmp_path):
        batch = make_instances(6)
        before = tiny_model.predict_raw(batch)
        save_checkpoint(tiny_model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        after = loaded.predict_raw(batch)
        assert np.max(np.abs(before - after)) <= 1e-6

    def test_missing_path(self, tmp_path):
        manifest = tmp_path / "nope" / "manifest.json"
        with pytest.raises(DataError, match=f"^{re.escape(str(manifest))}: not found"):
            load_checkpoint(tmp_path / "nope")


def test_make_encoder_unknown_type():
    with pytest.raises(ConfigError, match="unknown encoder type 'quantum'"):
        make_encoder({"type": "quantum"})


def test_head_hidden_width_floor():
    head = RegressionHead(9, np.random.default_rng(0))
    assert head.W1.shape == (2, 4, 9)
