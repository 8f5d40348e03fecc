"""Tests for training loops, joint loss, and grid selection."""

import json

import numpy as np
import pytest

from nliexpl import autodiff as ad
from nliexpl.data import EmbeddingTable, build_vocab, encode_corpus
from nliexpl.evaluation import (evaluate_model, label_accuracy, perplexity,
                                predict_all)
from nliexpl.models import BaseModel, build_model, joint_loss, load_model
from nliexpl.training import (RunRecord, TrainConfig, TrainData, TrainingError,
                              grid_select, train)
from model_utils import cast_model, toy_setup
from synth import make_examples


def toy_data(n_train=18, n_valid=9, seed=0):
    train_ex = make_examples(n_train, seed=seed)
    valid_ex = make_examples(n_valid, seed=seed + 100)
    vocab = build_vocab([e.premise for e in train_ex + valid_ex]
                        + [e.hypothesis for e in train_ex + valid_ex]
                        + [e.explanations[0] for e in train_ex + valid_ex],
                        min_count=1)
    table = EmbeddingTable.random(vocab, 8, np.random.default_rng(seed + 7))
    return TrainData(train=encode_corpus(train_ex, vocab),
                     valid=encode_corpus(valid_ex, vocab),
                     vocab=vocab, table=table)


def _load_record(path) -> RunRecord:
    """The RunRecord that `RunRecord.save` wrote to `path`."""
    return RunRecord(**json.loads(path.read_text(encoding="utf-8")))


def toy_train_config(variant, **kw):
    defaults = dict(variant=variant, epochs=2, seed=0, batch_size=8,
                    embed_dim=8, encoder_hidden=6, classifier_width=6,
                    decoder_hidden=6, dropout=0.5)
    defaults.update(kw)
    return TrainConfig(**defaults)


def _joint(l_label, l_expl, alpha):
    """`joint_loss` of two float64 scalar Tensors, as a float."""
    return float(joint_loss(ad.Tensor(np.float64(l_label)),
                            ad.Tensor(np.float64(l_expl)), alpha).data)


class TestJointLoss:
    def test_alpha_one_is_label_loss(self):
        assert _joint(2.0, 10.0, 1.0) == 2.0

    def test_alpha_zero_is_explanation_loss(self):
        assert _joint(2.0, 10.0, 0.0) == 10.0

    def test_point_six_weighting(self):
        assert _joint(2.0, 10.0, 0.6) == pytest.approx(5.2, rel=1e-12)

    def test_tensor_form(self):
        a = ad.Tensor(np.float32(2.0))
        b = ad.Tensor(np.float32(10.0))
        out = joint_loss(a, b, 0.6)
        np.testing.assert_allclose(float(out.data), 5.2, rtol=1e-6)

    def test_gradient_linearity_on_full_model(self):
        # grads at alpha equal the weighted sum of grads at alpha=1 and 0
        model, batch, _ = toy_setup("pred-expl", n=4, hidden=3, embed=4,
                                    dec=3, width=4)
        cast_model(model, np.float64)
        params = model.params()

        def grads_at(alpha):
            for p in params.values():
                p.grad = None
            with ad.Tape() as tape:
                loss, _ = model.loss(batch, rng=None, alpha=alpha)
            ad.backward(tape, loss)
            return {n: (np.zeros_like(p.data) if p.grad is None
                        else p.grad.copy()) for n, p in params.items()}

        g_label = grads_at(1.0)
        g_expl = grads_at(0.0)
        g_mix = grads_at(0.6)
        for name in g_mix:
            np.testing.assert_allclose(
                g_mix[name], 0.6 * g_label[name] + 0.4 * g_expl[name],
                rtol=1e-9, atol=1e-12)


class TestTrainConfig:
    def test_alpha_required_for_pred_expl(self):
        with pytest.raises(TrainingError, match="requires alpha"):
            TrainConfig(variant="pred-expl")

    def test_alpha_rejected_elsewhere(self):
        with pytest.raises(TrainingError, match="takes no alpha"):
            TrainConfig(variant="bilstm-max", alpha=0.5)

    def test_alpha_allowed_for_autoenc(self):
        cfg = TrainConfig(variant="autoenc", alpha=0.6)
        assert cfg.criterion == "val-accuracy"

    def test_criterion_defaults(self):
        assert TrainConfig(variant="pred-expl", alpha=0.6).criterion == \
            "val-accuracy"
        assert TrainConfig(variant="expl-pred-seq2seq").criterion == \
            "val-perplexity"
        assert TrainConfig(variant="hyp-to-expl").criterion == "val-perplexity"

    @pytest.mark.parametrize("variant", ["pred-expl", "autoenc"])
    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_bad_alpha_range(self, variant, alpha):
        """Every variant that takes alpha refuses one outside [0,1] here,
        so the joint loss is never given one."""
        with pytest.raises(TrainingError, match=r"alpha must be in \[0,1\]"):
            TrainConfig(variant=variant, alpha=alpha)

    def test_zero_lr_is_a_valid_frozen_run(self):
        assert TrainConfig(variant="bilstm-max", lr=0.0).lr == 0.0

    def test_unknown_variant_rejected_at_construction(self):
        with pytest.raises(TrainingError, match="unknown variant 'bert'"):
            TrainConfig(variant="bert")

    @pytest.mark.parametrize("key,value", [("batch_size", 0), ("epochs", 0),
                                           ("epochs", -1)])
    def test_run_length_must_be_positive(self, key, value):
        with pytest.raises(TrainingError,
                           match=f"{key} must be at least 1, got {value}"):
            TrainConfig(variant="bilstm-max", **{key: value})


class TestTrain:
    def test_deterministic_loss_curves(self, tmp_path):
        data = toy_data()
        cfg = toy_train_config("pred-expl", alpha=0.6, epochs=3)
        rec1 = train(cfg, data, tmp_path / "run1")
        rec2 = train(cfg, data, tmp_path / "run2")
        losses1 = [e["train_loss"] for e in rec1.epochs]
        losses2 = [e["train_loss"] for e in rec2.epochs]
        assert losses1 == losses2    # bit-identical
        assert [e["val_accuracy"] for e in rec1.epochs] == \
            [e["val_accuracy"] for e in rec2.epochs]

    def test_lr_schedule_recorded_exactly(self, tmp_path, monkeypatch):
        """Epoch e steps with, and records, lr * decay**e (the defaults
        0.1 and 0.99), decaying once per completed epoch."""
        data = toy_data()
        cfg = toy_train_config("bilstm-max", epochs=4)
        step, used = ad.sgd_step, []

        def spy(params, lr, clip_norm):
            used.append(lr)
            step(params, lr, clip_norm)

        monkeypatch.setattr(ad, "sgd_step", spy)
        rec = train(cfg, data, tmp_path / "run")
        lrs = [0.1 * 0.99 ** e for e in range(4)]
        assert [entry["lr"] for entry in rec.epochs] == lrs
        assert sorted(set(used), reverse=True) == lrs
        assert lrs == sorted(lrs, reverse=True)

    def test_best_epoch_optimizes_criterion(self, tmp_path):
        data = toy_data()
        cfg = toy_train_config("expl-pred-seq2seq", epochs=3)
        rec = train(cfg, data, tmp_path / "run")
        values = [e["val_perplexity"] for e in rec.epochs]
        assert rec.best_value == min(values)
        assert rec.best_epoch == values.index(min(values))

    def test_checkpoint_reproduces_recorded_metric(self, tmp_path):
        data = toy_data()
        cfg = toy_train_config("pred-expl", alpha=0.6, epochs=3)
        rec = train(cfg, data, tmp_path / "run")
        model = load_model(rec.checkpoint_path)
        preds, golds = predict_all(model, data.valid, cfg.batch_size, None)
        assert label_accuracy(preds, golds) == rec.best_value

    def test_perplexity_checkpoint_round_trip(self, tmp_path):
        data = toy_data()
        cfg = toy_train_config("hyp-to-expl", epochs=2)
        rec = train(cfg, data, tmp_path / "run")
        model = load_model(rec.checkpoint_path)
        res = perplexity(model, data.valid, cfg.batch_size)
        assert res.perplexity == rec.best_value

    def test_run_record_saved_and_loadable(self, tmp_path):
        data = toy_data()
        cfg = toy_train_config("bilstm-max", epochs=2)
        rec = train(cfg, data, tmp_path / "run")
        loaded = _load_record(tmp_path / "run" / "run.json")
        assert loaded.best_epoch == rec.best_epoch
        assert loaded.config["variant"] == "bilstm-max"
        assert len(loaded.epochs) == 2

    def test_divergence_aborts_with_note(self, tmp_path):
        data = toy_data()
        # poison the frozen embeddings: the first forward loss is NaN
        data.table.matrix[8:, :] = np.nan
        cfg = toy_train_config("bilstm-max", epochs=4)
        rec = train(cfg, data, tmp_path / "run")
        assert rec.aborted
        assert "non-finite" in rec.note
        assert rec.checkpoint_path is None  # nothing good to keep

    def test_gradient_error_aborts_with_note(self, tmp_path, monkeypatch):
        """A GradientError from `sgd_step` at epoch 1 aborts the run: its
        note names the epoch and the error, and epoch 0's checkpoint and
        run.json are kept."""
        step = ad.sgd_step

        def failing(params, lr, clip_norm):
            if lr == 0.1 * 0.99:   # epoch 1's
                raise ad.GradientError("non-finite gradient in ['w']")
            step(params, lr, clip_norm=clip_norm)

        monkeypatch.setattr(ad, "sgd_step", failing)
        cfg = toy_train_config("bilstm-max", epochs=3)
        rec = train(cfg, toy_data(), tmp_path / "run")
        assert rec.aborted
        assert rec.note == "epoch 1: non-finite gradient in ['w']"
        assert [e["epoch"] for e in rec.epochs] == [0] and rec.best_epoch == 0
        load_model(rec.checkpoint_path)
        loaded = _load_record(tmp_path / "run" / "run.json")
        assert (loaded.aborted, loaded.note) == (True, rec.note)
        assert len(loaded.epochs) == 1

    def test_teacher_forced_loss_decreases_on_one_example(self, tmp_path):
        # 50 steps of SGD on a single example: final loss below initial
        data = toy_data(n_train=2, n_valid=2)
        model = build_model(
            toy_train_config("pred-expl", alpha=0.6).model_config(),
            data.vocab, data.table, np.random.default_rng(0))
        from nliexpl.data import make_batch
        batch = make_batch(data.train[:1], with_explanations=True)
        params = model.params()
        losses = []
        for _ in range(50):
            with ad.Tape() as tape:
                loss, _ = model.loss(batch, rng=None, alpha=0.6)
            losses.append(float(loss.data))
            ad.backward(tape, loss)
            ad.sgd_step(params, 0.1, None)
        assert losses[-1] < losses[0]


class TestGridSelect:
    def test_single_config_returned(self, tmp_path):
        data = toy_data()
        cfg = toy_train_config("bilstm-max", epochs=1)
        best, records = grid_select([cfg], data, tmp_path)
        assert best is records[0]

    def test_untrained_config_loses(self, tmp_path):
        data = toy_data()
        good = toy_train_config("expl-pred-seq2seq", epochs=2, seed=1)
        frozen = toy_train_config("expl-pred-seq2seq", epochs=2, seed=1, lr=0.0)
        best, records = grid_select([frozen, good], data, tmp_path)
        assert best is records[1]
        assert best.best_value <= records[0].best_value

    def test_lower_perplexity_wins(self, tmp_path):
        data = toy_data()
        a = toy_train_config("expl-pred-seq2seq", epochs=1, seed=3)
        b = toy_train_config("expl-pred-seq2seq", epochs=3, seed=3)
        best, records = grid_select([a, b], data, tmp_path)
        want = min(records, key=lambda r: r.best_value)
        assert best.best_value == want.best_value

    @pytest.mark.parametrize("variant,values,want", [
        ("bilstm-max", [0.7, 0.7, None, 0.5], 1),
        ("expl-pred-seq2seq", [3.0, 3.0, None, 9.0], 1),
        ("bilstm-max", [None, None, 0.1, None], 2),
        ("expl-pred-seq2seq", [None, None], 1),
    ])
    def test_selection_direction_and_ties(self, tmp_path, monkeypatch,
                                          variant, values, want):
        """Accuracy is maximised and perplexity minimised; a run with no
        finished epoch loses; ties go to the smaller decoder."""
        from nliexpl import training as T
        configs = [toy_train_config(variant, decoder_hidden=d)
                   for d in (8, 4, 4, 4)[:len(values)]]
        results = iter(values)
        monkeypatch.setattr(T, "train", lambda cfg, data, out: RunRecord(
            config={}, seed=0, criterion=cfg.criterion,
            best_value=next(results)))
        best, records = grid_select(configs, None, tmp_path)
        assert best is records[want]


@pytest.mark.parametrize("variant", ["bilstm-max", "hyp-to-label",
                                     "expl-to-label", "autoenc"])
def test_non_explaining_variant_is_never_asked_for_explanations(
        tmp_path, monkeypatch, variant):
    """Training's validation and the evaluation of its best checkpoint
    ask a model that does not explain for labels only: no caller asks
    it for explanation NLL or greedy explanations."""
    asked = []
    eval_batch = BaseModel.eval_batch

    def spy(self, batch, nll=False, greedy=False):
        if not self.explains:
            asked.append((nll, greedy))
        return eval_batch(self, batch, nll=nll, greedy=greedy)

    monkeypatch.setattr(BaseModel, "eval_batch", spy)
    alpha = 0.6 if variant == "autoenc" else None
    data = toy_data()
    record = train(toy_train_config(variant, epochs=1, alpha=alpha), data,
                   tmp_path)
    evaluate_model(load_model(record.checkpoint_path), data.valid,
                   make_examples(9, seed=100), split="valid", batch_size=4)
    assert asked and set(asked) == {(False, False)}
