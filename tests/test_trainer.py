from collections import Counter

import numpy as np
import pytest

from dimasr.data import ConfigError
from dimasr.model import DimASRModel, TinyEncoder, build_input, save_checkpoint, load_checkpoint
from dimasr.trainer import (
    AdamW,
    EarlyStopper,
    TrainConfig,
    TrainerError,
    evaluate_rmse,
    fit,
    lr_at,
)
from .conftest import make_instances


def smoke_config(**overrides):
    base = dict(batch_size=16, learning_rate=0.01, dropout=0.0,
                max_epochs=5, patience=5, seed=42)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_model(seed=42, dim=32):
    return DimASRModel(TinyEncoder(dim=dim, seed=0), seed=seed,
                       input_dropout_rate=0.0, head_dropout_rate=0.0)


class TestLrSchedule:
    def test_peak_at_warmup_end(self):
        cfg = TrainConfig()
        assert lr_at(10, 100, cfg) == pytest.approx(2e-5)

    def test_zero_at_end(self):
        assert lr_at(100, 100, TrainConfig()) == 0.0

    def test_hand_computed_decay(self):
        assert lr_at(55, 100, TrainConfig()) == pytest.approx(1.0e-5)

    def test_zero_at_start(self):
        assert lr_at(0, 100, TrainConfig()) == 0.0

    def test_piecewise_linear_and_max(self):
        cfg = TrainConfig()
        values = [lr_at(s, 97, cfg) for s in range(98)]
        assert max(values) == pytest.approx(cfg.learning_rate)
        # continuity: adjacent steps never jump more than the larger segment slope
        warmup = int(np.ceil(0.1 * 97))
        max_slope = max(cfg.learning_rate / warmup, cfg.learning_rate / (97 - warmup))
        assert max(abs(values[i + 1] - values[i]) for i in range(97)) <= max_slope + 1e-18

    def test_step_out_of_range(self):
        with pytest.raises(TrainerError):
            lr_at(101, 100, TrainConfig())


class TestEarlyStopper:
    def test_counting_rule(self):
        stopper = EarlyStopper(patience=3)
        seq = [1.0, 0.9, 0.95, 0.96, 0.97]
        stops = [stopper.update(v) for v in seq]
        assert stops == [False, False, False, False, True]
        assert stopper.best_index == 2

    def test_monotone_improvement_never_stops(self):
        stopper = EarlyStopper(patience=3)
        assert not any(stopper.update(1.0 - 0.05 * i) for i in range(10))
        assert stopper.best_index == 10

    def test_strict_inequality(self):
        stopper = EarlyStopper(patience=2)
        assert [stopper.update(v) for v in [1.0, 1.0, 1.0]] == [False, False, True]
        assert stopper.best_index == 1


class TestTrainConfig:
    def test_table_defaults(self):
        cfg = TrainConfig()
        assert (cfg.batch_size, cfg.learning_rate, cfg.warmup_ratio, cfg.dropout,
                cfg.max_epochs, cfg.patience, cfg.grad_clip_norm, cfg.seed,
                cfg.max_len) == (16, 2e-5, 0.10, 0.1, 10, 3, 1.0, 42, 256)

    def test_validation(self):
        with pytest.raises(TrainerError):
            TrainConfig(patience=11, max_epochs=10)
        with pytest.raises(TrainerError):
            TrainConfig(warmup_ratio=1.0)

    def test_from_mapping_rejects_unknown(self):
        assert TrainConfig.from_mapping({"batch_size": 8}).batch_size == 8
        with pytest.raises(ConfigError, match="unknown train settings: adam_beta1, learning_rat"):
            TrainConfig.from_mapping({"learning_rat": 0.5, "adam_beta1": 0.5})


class TestFit:
    def test_overfits_small_set(self, sixteen_instances):
        model = tiny_model()
        cfg = smoke_config(max_epochs=200, patience=200)
        model, history = fit(model, sixteen_instances, sixteen_instances, cfg)
        assert evaluate_rmse(model, sixteen_instances) < 0.5
        assert not history.stopped_early

    def test_deterministic_history(self, sixteen_instances):
        histories = []
        for _ in range(2):
            model = tiny_model()
            _, history = fit(model, sixteen_instances, sixteen_instances, smoke_config())
            histories.append([(r.train_loss, r.val_rmse_va) for r in history.records])
        assert histories[0] == histories[1]

    def test_best_epoch_attains_minimum(self, sixteen_instances):
        model = tiny_model()
        _, history = fit(model, sixteen_instances, sixteen_instances, smoke_config())
        values = [r.val_rmse_va for r in history.records]
        assert values[history.best_epoch - 1] == min(values)

    def test_restores_best_params(self, sixteen_instances, tmp_path):
        # checkpoint every epoch via the callback; after fit, outputs must
        # match the checkpoint saved at the best epoch exactly
        model = tiny_model()
        cfg = smoke_config(max_epochs=6, patience=6)

        def save_each(epoch, m, record):
            save_checkpoint(m, tmp_path / f"epoch{epoch}")

        model, history = fit(model, sixteen_instances, sixteen_instances, cfg,
                             epoch_callback=save_each)
        best = load_checkpoint(tmp_path / f"epoch{history.best_epoch}")
        got = model.predict_raw(sixteen_instances)
        want = best.predict_raw(sixteen_instances)
        np.testing.assert_array_equal(got, want)

    def test_records_clip_statistics(self, sixteen_instances):
        cfg = smoke_config(batch_size=4)  # four steps per epoch
        _, history = fit(tiny_model(), sixteen_instances, sixteen_instances, cfg)
        for record in history.records:
            assert 0.0 <= record.clipped_frac <= 1.0
            assert (record.clipped_frac * 4).is_integer()
            assert record.grad_norm_max >= record.grad_norm_mean > 0.0
        # the first epoch's norms straddle the clip: 3 of its 4 steps are clipped
        assert history.records[0].clipped_frac == 0.75

    def test_empty_val_rejected(self, sixteen_instances):
        with pytest.raises(TrainerError, match="validation"):
            fit(tiny_model(), sixteen_instances, [], smoke_config())

    def test_missing_gold_rejected(self, sixteen_instances):
        broken = sixteen_instances[:-1] + [
            type(sixteen_instances[0])("zz", 0, "text", "aspect", None)
        ]
        with pytest.raises(TrainerError, match="gold"):
            fit(tiny_model(), broken, sixteen_instances, smoke_config())

    def test_early_stop_on_plateau(self, sixteen_instances):
        # lr 0 never changes parameters, so validation is flat and stopping
        # must trigger after exactly patience+1 epochs
        model = tiny_model()
        cfg = smoke_config(learning_rate=1e-30, max_epochs=10, patience=3)
        _, history = fit(model, sixteen_instances, sixteen_instances, cfg)
        assert history.stopped_early
        assert len(history.records) == 4
        assert history.best_epoch == 1


    @pytest.mark.parametrize("case,best,epochs,loads", [
        ("best-last", 4, 4, 0), ("best-earlier", 2, 6, 1), ("early-stop", 2, 4, 1)])
    def test_restores_only_when_best_epoch_is_not_last(self, monkeypatch, case, best, epochs,
                                                       loads):
        # the parameters after the last epoch run already are the best state
        # when that epoch is the best one; otherwise fit restores the snapshot,
        # which must equal the parameters the best epoch ended with
        pool = make_instances(48, seed=3)
        sixteen = make_instances(16, seed=7)
        fit_set, val_set, cfg = {
            "best-last": (sixteen, sixteen, smoke_config(batch_size=8, max_epochs=4, patience=4,
                                                         learning_rate=0.03)),
            "best-earlier": (pool[:32], pool[32:], smoke_config(max_epochs=6, patience=6,
                                                                learning_rate=0.003)),
            "early-stop": (pool[:32], pool[32:], smoke_config(max_epochs=10, patience=2,
                                                              learning_rate=0.002)),
        }[case]
        loaded = []
        load_state = DimASRModel.load_state
        monkeypatch.setattr(DimASRModel, "load_state",
                            lambda self, arrays: (loaded.append(1), load_state(self, arrays)))
        ended = []  # each epoch's parameters, as they were after its validation

        def keep(epoch, m, record):
            ended.append({k: v.copy() for k, v in m.parameters().items()})

        model, history = fit(tiny_model(), fit_set, val_set, cfg, epoch_callback=keep)
        assert (history.best_epoch, len(history.records), len(loaded)) == (best, epochs, loads)
        assert history.stopped_early == (case == "early-stop")
        params = model.parameters()
        assert params.keys() == ended[best - 1].keys()
        for name, value in params.items():
            np.testing.assert_array_equal(value, ended[best - 1][name])
        assert evaluate_rmse(model, val_set) == history.records[best - 1].val_rmse_va


class FrozenStandIn(TinyEncoder):
    """A frozen backbone's contract, as HFEncoder has it: no trainable
    parameters, and a backward pass that no step reaches."""

    def parameters(self) -> dict:
        return {}

    def backward(self, dH, cache, grads) -> None:
        pass


class CountingFrozen(FrozenStandIn):
    """Records every token sequence its forward pass sees."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def encode_batch(self, token_seqs):
        self.seen.extend(tuple(seq) for seq in token_seqs)
        return super().encode_batch(token_seqs)


class OneUnusedParameter(FrozenStandIn):
    """Reports one parameter that nothing uses, so fit encodes every batch;
    its backward pass stores that parameter's zero gradient."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.unused = np.zeros(1)

    def parameters(self) -> dict:
        return {"encoder.unused": self.unused}

    def backward(self, dH, cache, grads) -> None:
        grads["encoder.unused"] = np.zeros(1)


class TestFrozenEncoder:
    # 21 fit instances: batches of 16 and 5; 70 val instances: chunks of 64 and 6
    @pytest.fixture
    def split(self):
        instances = make_instances(91, seed=1)
        return instances[:21], instances[21:]

    def test_one_forward_per_instance_per_fit(self, split):
        fit_set, val_set = split
        encoder = CountingFrozen(dim=16, seed=0)
        fit(DimASRModel(encoder, seed=42), fit_set, val_set, smoke_config(max_epochs=3, patience=3))
        want = Counter(tuple(build_input(inst.text, inst.aspect, encoder))
                       for inst in fit_set + val_set)
        assert max(want.values()) == 1
        assert Counter(encoder.seen) == want

    def test_cached_features_match_per_batch_encoding(self, split):
        # 768 wide, where matmul rows agree across batch sizes above one row
        fit_set, val_set = split
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=4, patience=4)  # dropout 0.1
        runs = []
        for encoder_class in (FrozenStandIn, OneUnusedParameter):
            model = DimASRModel(encoder_class(dim=768, vocab_size=512, seed=0), seed=cfg.seed,
                                input_dropout_rate=cfg.dropout, head_dropout_rate=cfg.dropout)
            model, history = fit(model, fit_set, val_set, cfg)
            best = history.records[history.best_epoch - 1].val_rmse_va
            assert evaluate_rmse(model, val_set) == best
            runs.append((history, model.head.parameters()))
        (cached, cached_params), (per_batch, per_batch_params) = runs
        assert cached == per_batch
        for name, value in cached_params.items():
            np.testing.assert_array_equal(value, per_batch_params[name])


@pytest.mark.parametrize("encoder_class", [TinyEncoder, FrozenStandIn])
def test_token_ids_built_once_per_fit(encoder_class, monkeypatch):
    # a trainable fit reuses its ids over 3 epochs of steps and validations
    import dimasr.model

    calls = []
    monkeypatch.setattr(dimasr.model, "build_input",
                        lambda *args: calls.append(args) or build_input(*args))
    instances = make_instances(40, seed=3)
    fit_set, val_set = instances[:30], instances[30:]
    fit(DimASRModel(encoder_class(dim=8, seed=0), seed=42), fit_set, val_set,
        smoke_config(max_epochs=3, patience=3))
    assert len(calls) == len(fit_set) + len(val_set)


class TestClipIntegration:
    def test_postclip_norm_bounded(self, sixteen_instances):
        from dimasr import kernels

        model = tiny_model()
        rng = np.random.default_rng(0)
        grads = {}
        model.loss_and_grads(sixteen_instances, rng, grads,
                             model.encoder_inputs(sixteen_instances), range(16))
        kernels.clip_gradients(list(grads.values()), 1.0)
        assert kernels.global_grad_norm(grads.values()) <= 1.0 + 1e-6


def test_validation_encoder_failure_is_trainer_error(monkeypatch):
    """An encoder that fails only on validation's chunks fails fit with
    TrainerError, as a failure in a step does."""
    encode = TinyEncoder.encode_batch

    def fail_above_16_rows(self, token_seqs):
        if len(token_seqs) > 16:
            raise ValueError("chunk too large")
        return encode(self, token_seqs)

    monkeypatch.setattr(TinyEncoder, "encode_batch", fail_above_16_rows)
    fit_set, val_set = make_instances(20, seed=1), make_instances(40, seed=2, prefix="v")
    with pytest.raises(TrainerError, match=r"encoder failed on batch \[\('v0', 0\), "
                                           r"\('v1', 0\), \('v2', 0\)\]\.\.\.: chunk too large"):
        fit(tiny_model(dim=8), fit_set, val_set, smoke_config(max_epochs=1, patience=1))


def test_non_finite_validation_rmse_is_trainer_error(monkeypatch):
    """Validation scores the label-scale array: a NaN prediction fails fit
    naming the epoch, not as an RMSE that no later epoch can beat."""
    monkeypatch.setattr(DimASRModel, "predict_raw",
                        lambda self, instances, inputs=None: np.full((len(instances), 2), np.nan))
    fit_set, val_set = make_instances(20, seed=1), make_instances(8, seed=2, prefix="v")
    with pytest.raises(TrainerError, match="non-finite validation rmse_va nan at epoch 1"):
        fit(tiny_model(dim=8), fit_set, val_set, smoke_config(max_epochs=1, patience=1))


def test_adamw_moves_params_toward_gradient_descent():
    params = {"p": np.array([1.0, -1.0])}
    opt = AdamW(params, TrainConfig(weight_decay=0.0))
    before = params["p"].copy()
    opt.step({"p": np.array([1.0, -1.0])}, lr=0.1)
    assert params["p"][0] < before[0] and params["p"][1] > before[1]
