"""Training loops, the weighted joint loss, model selection, grids.

One run: per epoch, shuffle with the epoch index mixed into the seed,
take SGD steps on the variant's loss, measure validation metrics, keep
the checkpoint that is best under the variant's selection criterion
(label accuracy for classifier-led variants, explanation perplexity for
generator-led ones), then decay the learning rate once.

Nothing here names a variant: whether it takes alpha, needs
explanations in its batches and which criterion selects it are read
from the variant class in `models`, where they are declared.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import (EmbeddingTable, EncodedExample, Vocabulary, iterate_batches,
                   missing_explanations)
from .evaluation import evaluation_pass, label_accuracy
from .models import ModelConfig, ModelError, build_model, variant_class
from .models import joint_loss  # noqa: F401  (public here too)

log = logging.getLogger(__name__)

ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DECODER_GRID = (512, 1024, 2048, 4096)


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig(ModelConfig):
    """A model configuration plus the settings of its optimisation."""

    alpha: float | None = None
    epochs: int = 20
    seed: int = 0
    batch_size: int = 64
    lr: float = 0.1
    decay: float = 0.99
    clip_norm: float | None = None     # off unless configured

    def __post_init__(self):
        super().__post_init__()
        small = [f"{k} must be at least 1, got {getattr(self, k)}"
                 for k in ("epochs", "batch_size") if getattr(self, k) < 1]
        if small:
            raise TrainingError("; ".join(small))
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise TrainingError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 < self.decay <= 1.0:
            raise TrainingError(f"decay must be in (0,1], got {self.decay}")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise TrainingError(f"clip_norm must be > 0, got {self.clip_norm}")
        try:
            takes_alpha = variant_class(self.variant).takes_alpha
        except ModelError as err:
            raise TrainingError(str(err)) from None
        if takes_alpha:
            if self.alpha is None:
                raise TrainingError(f"{self.variant} requires alpha")
            if not 0.0 <= self.alpha <= 1.0:
                raise TrainingError(f"alpha must be in [0,1], got {self.alpha}")
        elif self.alpha is not None:
            raise TrainingError(f"{self.variant} takes no alpha")

    @property
    def criterion(self) -> str:
        """Model-selection metric, fixed by the variant."""
        return variant_class(self.variant).criterion

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name)
                              for f in fields(ModelConfig)})


@dataclass
class TrainData:
    train: list[EncodedExample]
    valid: list[EncodedExample]
    vocab: Vocabulary
    table: EmbeddingTable


@dataclass
class RunRecord:
    """Append-only trace of one training run."""

    config: dict
    seed: int
    criterion: str
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int | None = None
    best_value: float | None = None
    checkpoint_path: str | None = None
    aborted: bool = False
    note: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


# selection criterion -> (validation metric, sign that makes higher better)
_CRITERIA = {"val-accuracy": ("val_accuracy", 1.0),
             "val-perplexity": ("val_perplexity", -1.0)}


def _score(value: float | None, criterion: str) -> float:
    """Selection score, higher is better; a run with no epoch scores -inf."""
    return -math.inf if value is None else _CRITERIA[criterion][1] * value


def check_splits(variant: str, data: TrainData) -> None:
    """Raises TrainingError naming a split that encoded to no example,
    or the examples without an explanation when the variant reads or
    decodes explanations."""
    cls = variant_class(variant)
    for split, examples in (("train", data.train), ("valid", data.valid)):
        if not examples:
            raise TrainingError(f"the {split} split has no example with both "
                                "a premise and a hypothesis")
        if cls.needs_explanations and (
                message := missing_explanations(cls, examples)):
            raise TrainingError(f"{split} split: {message}")


def _validation_metrics(model, valid, batch_size) -> dict:
    res = evaluation_pass(model, valid, batch_size, nll=model.explains)
    metrics: dict = {}
    if model.has_classifier:
        metrics["val_accuracy"] = label_accuracy(res.preds, res.golds)
    if model.explains:
        metrics["val_perplexity"] = res.perplexity
        metrics["val_token_accuracy"] = res.token_accuracy
    return metrics


def train(config: TrainConfig, data: TrainData, out_dir) -> RunRecord:
    """Run one training configuration; returns its RunRecord.

    All randomness derives from config.seed: stream 0 initializes
    weights, stream (1, epoch) drives dropout, and the batch shuffle
    mixes the epoch index into the seed. Divergence (non-finite loss or
    gradients) aborts the run, keeping the last good checkpoint.
    """
    check_splits(config.variant, data)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    criterion = config.criterion
    record = RunRecord(config=asdict(config), seed=config.seed,
                       criterion=criterion)
    model = build_model(config.model_config(), data.vocab, data.table,
                        np.random.default_rng([config.seed, 0]))
    params = model.params()
    state = ad.SgdState(base_lr=config.lr, decay=config.decay)
    ckpt_dir = out_dir / "checkpoints" / "best"

    for epoch in range(config.epochs):
        drop_rng = np.random.default_rng([config.seed, 1, epoch])
        epoch_losses = []
        for batch in iterate_batches(data.train, config.batch_size,
                                     seed=config.seed, epoch=epoch,
                                     shuffle=True,
                                     with_explanations=model.needs_explanations):
            with ad.Tape() as tape:
                loss, _ = model.loss(batch, train=True, rng=drop_rng,
                                     alpha=config.alpha)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                record.note = f"non-finite loss at epoch {epoch}"
                break
            ad.backward(tape, loss)
            try:
                ad.sgd_step(params, state, clip_norm=config.clip_norm)
            except ad.GradientError as err:
                record.note = f"epoch {epoch}: {err}"
                break
            epoch_losses.append(loss_val)
        if record.note:   # either abort above
            record.aborted = True
            log.error("%s; keeping last good checkpoint", record.note)
            break
        entry = {"epoch": epoch, "lr": state.lr,
                 "train_loss": float(np.mean(epoch_losses))}
        entry.update(_validation_metrics(model, data.valid, config.batch_size))
        record.epochs.append(entry)
        value = entry[_CRITERIA[criterion][0]]
        if (record.best_value is None or _score(value, criterion)
                > _score(record.best_value, criterion)):
            record.best_value = value
            record.best_epoch = epoch
            model.save(ckpt_dir, extra_meta={"epoch": epoch,
                                             "criterion": criterion,
                                             "criterion_value": value})
            record.checkpoint_path = str(ckpt_dir)
        state.advance_epoch()   # decay once per completed epoch
    record.save(out_dir / "run.json")
    return record


def grid_select(configs: list[TrainConfig], data: TrainData,
                out_root) -> tuple[RunRecord, list[RunRecord]]:
    """Train every config and return (best record, all records).

    All configs must share a selection criterion. Ties break toward the
    smaller decoder size, then the lower alpha.
    """
    if not configs:
        raise TrainingError("empty grid")
    criteria = {c.criterion for c in configs}
    if len(criteria) != 1:
        raise TrainingError(f"grid mixes selection criteria: {criteria}")
    criterion = criteria.pop()
    out_root = Path(out_root)
    records = []
    for i, cfg in enumerate(configs):
        records.append(train(cfg, data, out_root / f"grid{i:02d}"))

    def sort_key(item):
        rec, cfg = item
        alpha = cfg.alpha if cfg.alpha is not None else math.inf
        return (-_score(rec.best_value, criterion), cfg.decoder_hidden, alpha)

    best_rec, _ = min(zip(records, configs), key=sort_key)
    return best_rec, records
