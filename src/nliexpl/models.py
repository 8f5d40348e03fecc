"""The architecture zoo.

Every variant is built from the same components: a per-direction LSTM
sentence encoder with max-pooling over real timesteps, the pairwise
feature vector [u, v, |u-v|, u*v], a 3-layer affine classifier, and a
conditioned LSTM decoder over the output vocabulary (optionally with
one attention head per input sentence).

Variants:
  bilstm-max          premise + hypothesis -> label
  hyp-to-label        hypothesis only -> label
  hyp-to-expl         hypothesis only -> explanation
  pred-expl           label first, then explanation conditioned on it
  expl-pred-seq2seq   explanation only (no classifier, no label token)
  expl-pred-att       same with premise/hypothesis attention heads
  expl-to-label       explanation -> label
  autoenc             classifier + shared decoder reconstructing both
                      input sentences from their own representations

Every fact about a variant lives only on its class, which declares
those facts and nothing else. `BaseModel` builds each variant from them
and derives all its behaviour: the loss, teacher forcing, greedy
decoding and what training, evaluation and the CLI read.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Batch, EmbeddingTable, Vocabulary, pad_rows


class ModelError(RuntimeError):
    pass


@dataclass
class ModelConfig:
    variant: str
    embed_dim: int = 300
    encoder_hidden: int = 2048
    classifier_width: int = 512
    decoder_hidden: int = 512
    max_decode_len: int = 40
    dropout: float = 0.5

    def __post_init__(self):
        sizes = ("embed_dim", "encoder_hidden", "classifier_width",
                 "decoder_hidden", "max_decode_len")
        small = [f"{k}={getattr(self, k)}" for k in sizes if getattr(self, k) < 1]
        if small:
            raise ModelError(f"sizes must be at least 1: {', '.join(small)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0,1), got {self.dropout}")

    @property
    def sentence_dim(self) -> int:
        return 2 * self.encoder_hidden   # bidirectional

    @property
    def feature_dim(self) -> int:
        return 4 * self.sentence_dim


@dataclass
class FeatureVector:
    """f = [u, v, |u-v|, u*v] with the constituents kept for inspection."""

    f: ad.Tensor
    u: ad.Tensor
    v: ad.Tensor | None   # None when a single sentence is encoded (f = u)


def feature_vector(u: ad.Tensor, v: ad.Tensor) -> FeatureVector:
    if u.shape != v.shape:
        raise ad.ShapeError(f"feature_vector: {u.shape} vs {v.shape}")
    f = ad.concat([u, v, ad.abs_(ad.sub(u, v)), ad.mul(u, v)])
    return FeatureVector(f=f, u=u, v=v)


class _Part:
    """Holds model weights. The tensors it holds are the only record of
    them: `params()` walks the attributes in assignment order and takes
    each parameter Tensor, the weights of each LSTM cell and, in turn,
    those of each part, alone or in a list."""

    def params(self) -> dict[str, ad.Tensor]:
        out: dict[str, ad.Tensor] = {}
        for value in vars(self).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, _Part):
                    out.update(item.params())
                elif isinstance(item, ad.LstmParams):
                    out.update((t.name, t) for t in (item.wi, item.wh, item.b))
                elif isinstance(item, ad.Tensor) and item.is_param:
                    out[item.name] = item
        return out


class WordEmbedding(_Part):
    """Frozen pretrained rows plus trainable rows for the label words.

    A float32 table is taken as it is, not copied: a loaded model's frozen
    rows stay a view into its checkpoint blob (nothing writes to them)."""

    def __init__(self, table: EmbeddingTable, vocab: Vocabulary,
                 rng: np.random.Generator):
        if table.matrix.shape[0] != len(vocab):
            raise ModelError("embedding table does not match vocabulary size")
        self.frozen = np.asarray(table.matrix, dtype=np.float32)
        self.dim = table.matrix.shape[1]
        self.slots = np.full(len(vocab), -1, dtype=np.int64)
        for slot, vid in enumerate(vocab.label_ids):
            self.slots[vid] = slot
        self.label_rows = ad.uniform_param(
            rng, (len(vocab.label_ids), self.dim), "embedding.label_rows")

    def lookup(self, ids: np.ndarray) -> ad.Tensor:
        return ad.embedding_lookup(self.frozen, ids, self.label_rows, self.slots)


class BiLstmEncoder(_Part):
    """Bidirectional LSTM over token ids, max-pooled over real steps.

    Both directions and the pooling are one `bilstm_layer`, which runs
    the forward direction on the calling thread and the backward one on
    autodiff's worker thread at the same time: each is a packed
    recurrence over the real step-rows of the (T, B) sequence, keeping
    its running max as it goes; pad steps have no output row. The
    backward direction starts each row at its last real token from a
    zero state, so padding never reaches a state or the pooled vector.
    """

    def __init__(self, rng: np.random.Generator, embed_dim: int, hidden: int,
                 prefix: str):
        self.prefix = prefix
        self.fwd = ad.init_lstm(rng, embed_dim, hidden, f"{prefix}.fwd")
        self.bwd = ad.init_lstm(rng, embed_dim, hidden, f"{prefix}.bwd")

    def encode(self, embedding: WordEmbedding, ids: np.ndarray, lengths: np.ndarray,
               states: bool = True) -> tuple[ad.Tensor, ad.Tensor | None]:
        """Returns (u, states), one tape record: u is (B, 2H); states (P,
        2H), the P real step-rows in time-major order, forward half first,
        are made only with `states` (else None), for attention to read."""
        return ad.bilstm_layer(embedding.lookup(ids.T), self.fwd, self.bwd,
                               lengths, states)


class MlpClassifier(_Part):
    """Three affine layers, no nonlinearities, 3 output logits."""

    def __init__(self, rng: np.random.Generator, in_dim: int, width: int):
        self.w1 = ad.uniform_param(rng, (width, in_dim), "classifier.l1.w")
        self.b1 = ad.param(np.zeros(width, dtype=np.float32), "classifier.l1.b")
        self.w2 = ad.uniform_param(rng, (width, width), "classifier.l2.w")
        self.b2 = ad.param(np.zeros(width, dtype=np.float32), "classifier.l2.b")
        self.w3 = ad.uniform_param(rng, (3, width), "classifier.l3.w")
        self.b3 = ad.param(np.zeros(3, dtype=np.float32), "classifier.l3.b")

    def logits(self, f: ad.Tensor) -> ad.Tensor:
        a1 = ad.linear(f, self.w1, self.b1)
        a2 = ad.linear(a1, self.w2, self.b2)
        return ad.linear(a2, self.w3, self.b3)


class AttentionHead(_Part):
    """One projection head attending over encoder states.

    proj1/proj2 transform the encoder's real step-rows once per
    sequence, as the keys and values of an `autodiff.Attention`; at each
    step the decoder's state, projected through wc/bc, scores a row's
    keys, and their softmax weighs its values into the context. No pad
    step is projected or weighed.
    """

    def __init__(self, rng: np.random.Generator, state_dim: int, dec_dim: int,
                 attn_dim: int, prefix: str):
        self.w1 = ad.uniform_param(rng, (attn_dim, state_dim), f"{prefix}.w1")
        self.b1 = ad.param(np.zeros(attn_dim, dtype=np.float32), f"{prefix}.b1")
        self.wc = ad.uniform_param(rng, (attn_dim, dec_dim), f"{prefix}.wc")
        self.bc = ad.param(np.zeros(attn_dim, dtype=np.float32), f"{prefix}.bc")
        self.w2 = ad.uniform_param(rng, (attn_dim, state_dim), f"{prefix}.w2")
        self.b2 = ad.param(np.zeros(attn_dim, dtype=np.float32), f"{prefix}.b2")

    def precompute(self, states: ad.Tensor, lengths: np.ndarray) -> ad.Attention:
        proj1 = ad.tanh_(ad.linear(states, self.w1, self.b1))
        proj2 = ad.tanh_(ad.linear(states, self.w2, self.b2))
        return ad.Attention(self.wc, self.bc, proj1, proj2, lengths)


@dataclass
class DecodeResult:
    nll_sum: ad.Tensor          # summed over batch rows and timesteps
    n_tokens: int
    n_correct: int


class LstmDecoder(_Part):
    """LSTM decoder conditioned on a source vector.

    h0/c0 are affine projections of the source; in the non-attention
    configuration a third projection of the source is concatenated to
    the word embedding at every timestep. In the attention
    configuration the per-step input is [p_ctx, h_ctx, embedding]: one
    context per `autodiff.Attention` head of `attn_ctx`, in order. That
    projection or those heads are the `cond` of the decoder's LSTM.
    Recurrent (variational) dropout draws one mask per sequence and
    applies it to the hidden state entering each step, training only.
    """

    def __init__(self, rng: np.random.Generator, cfg: ModelConfig,
                 source_dim: int, vocab_size: int, attention: bool):
        self.hidden = cfg.decoder_hidden
        self.max_len = cfg.max_decode_len
        self.dropout = cfg.dropout
        self.attention = attention
        H, E = self.hidden, cfg.embed_dim
        self.w_h0 = ad.uniform_param(rng, (H, source_dim), "decoder.h0.w")
        self.b_h0 = ad.param(np.zeros(H, dtype=np.float32), "decoder.h0.b")
        self.w_c0 = ad.uniform_param(rng, (H, source_dim), "decoder.c0.w")
        self.b_c0 = ad.param(np.zeros(H, dtype=np.float32), "decoder.c0.b")
        if attention:
            in_dim = 2 * H + E   # [p_ctx, h_ctx, embedding]
        else:
            self.w_cond = ad.uniform_param(rng, (H, source_dim),
                                           "decoder.cond.w")
            self.b_cond = ad.param(np.zeros(H, dtype=np.float32),
                                   "decoder.cond.b")
            in_dim = E + H       # [embedding, source projection]
        self.cell = ad.init_lstm(rng, in_dim, H, "decoder.cell")
        self.w_out = ad.uniform_param(rng, (vocab_size, H), "decoder.out.w")
        self.b_out = ad.param(np.zeros(vocab_size, dtype=np.float32),
                              "decoder.out.b")

    def _init_state(self, source: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        return (ad.linear(source, self.w_h0, self.b_h0),
                ad.linear(source, self.w_c0, self.b_c0))

    def _cond(self, source: ad.Tensor, attn_ctx):
        return (attn_ctx if self.attention
                else ad.linear(source, self.w_cond, self.b_cond))

    def teacher_forced(self, embedding: WordEmbedding, source: ad.Tensor,
                       inputs: np.ndarray, targets: np.ndarray,
                       lengths: np.ndarray, train: bool,
                       rng: np.random.Generator | None = None,
                       attn_ctx=None) -> DecodeResult:
        """Row b's first `lengths[b]` steps of (B, S) `inputs` are real.
        The whole sequence is one `lstm_layer`, which skips the pad steps
        and takes the source projection (once per sequence) or the heads
        (read at each step from the previous state) as `cond`. It returns
        the states of the real (t, b) step-rows only, in time-major order,
        and the output projection and the fused softmax NLL
        (`cross_entropy_rows`) run once over them."""
        B, S = inputs.shape
        h, c = self._init_state(source)
        rmask = None
        if train and self.dropout > 0.0:
            rmask = ad.dropout_mask(rng, (B, self.hidden), self.dropout,
                                    embedding.frozen.dtype)
        hs = ad.lstm_layer(embedding.lookup(inputs.T), self.cell, h, c,
                           lengths, cond=self._cond(source, attn_ctx),
                           rmask=rmask)
        logits = ad.linear(hs, self.w_out, self.b_out)
        gold = targets.T[np.arange(S)[:, None] < lengths]   # in hs's row order
        nll = ad.cross_entropy_rows(logits, gold)
        # the argmax of the probabilities the loss left in the logits' buffer
        hits = int((logits.data.argmax(axis=1) == gold).sum())
        return DecodeResult(nll_sum=ad.sum_(nll), n_tokens=len(gold),
                            n_correct=hits)

    def greedy(self, embedding: WordEmbedding, source: ad.Tensor,
               start_ids: np.ndarray, eos_id: int,
               attn_ctx=None) -> tuple[list[list[int]], list[bool]]:
        """Argmax decoding until <eos> or the length cap; eval mode.

        One loop for both configurations: each step is teacher forcing's
        LSTM step on arrays (`autodiff.lstm_stepper`, whose worker makes
        the next step's state term meanwhile), then the output
        projection. Returns per-row emitted token ids (exclusive of
        <eos>) and a flag marking rows that emitted nothing before <eos>.
        """
        w_out, b_out = self.w_out.data.T, self.b_out.data
        current = np.asarray(start_ids, dtype=np.int64)
        emitted: list[list[int]] = [[] for _ in current]
        done = np.zeros(len(current), dtype=bool)
        with ad.lstm_stepper(self.cell, *self._init_state(source),
                             self._cond(source, attn_ctx)) as step:
            for _ in range(self.max_len):
                logits = step(embedding.lookup(current).data) @ w_out
                logits += b_out
                nxt = logits.argmax(axis=1)
                for i in np.flatnonzero(~done & (nxt != eos_id)):
                    emitted[i].append(int(nxt[i]))
                done |= nxt == eos_id
                if done.all():
                    break
                current = nxt
        return emitted, [len(e) == 0 for e in emitted]


# ---------------------------------------------------------------------------
# Variants


def joint_loss(l_label: ad.Tensor, l_expl: ad.Tensor, alpha: float) -> ad.Tensor:
    """alpha * label loss + (1 - alpha) * explanation loss; alpha outside
    [0, 1] is an error."""
    if alpha is None or not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    return ad.add(ad.scale(l_label, alpha), ad.scale(l_expl, 1.0 - alpha))


def wrap_rows(vocab: Vocabulary, rows) -> tuple[np.ndarray, np.ndarray]:
    """Pads each id row as <bos> row <eos>; returns (ids, lengths)."""
    return pad_rows([[vocab.bos_id, *row, vocab.eos_id] for row in rows])


class BaseModel(_Part):
    """Builds a variant from the facts its class declares.

    Declared per variant:
      sentences       encoded inputs, in parameter-init order
      has_classifier  whether an MLP predicts the label
      decodes         None, "explain", "attend" (explain with one
                      attention head per sentence) or "reconstruct"

    Derived once per class (see `__init_subclass__`): `explains`,
    `reads_explanations`, `needs_explanations`, `takes_alpha` and the
    selection `criterion`.
    Derived per call from the same facts: the loss, the decoder's first
    word (the label word with a classifier, else <bos>), perplexity and
    generation; a variant class defines no method. Parameters are
    initialized in the order embedding label rows, encoders, classifier,
    attention heads, decoder.
    """

    variant = "base"
    sentences: tuple[str, ...] = ()
    has_classifier = False
    decodes: str | None = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.explains = cls.decodes in ("explain", "attend")
        cls.reads_explanations = "explanation" in cls.sentences
        cls.needs_explanations = cls.explains or cls.reads_explanations
        cls.takes_alpha = cls.has_classifier and cls.decodes is not None
        cls.criterion = ("val-accuracy" if cls.has_classifier
                         else "val-perplexity")

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary,
                 table: EmbeddingTable, rng: np.random.Generator):
        if cfg.embed_dim != table.dim:
            raise ModelError(f"embed_dim {cfg.embed_dim} != table dim {table.dim}")
        self.cfg = cfg
        self.vocab = vocab
        self.embedding = WordEmbedding(table, vocab, rng)
        for name in self.sentences:
            encoder = BiLstmEncoder(rng, cfg.embed_dim, cfg.encoder_hidden,
                                    f"{name}_encoder")
            setattr(self, encoder.prefix, encoder)
        # f: the feature vector of a sentence pair, else the sentence vector
        f_dim = cfg.feature_dim if len(self.sentences) == 2 else cfg.sentence_dim
        if self.has_classifier:
            self.classifier = MlpClassifier(rng, f_dim, cfg.classifier_width)
        self.heads: list[AttentionHead] = []
        if self.decodes == "attend":
            self.heads = [AttentionHead(rng, cfg.sentence_dim,
                                        cfg.decoder_hidden, cfg.decoder_hidden,
                                        f"attention.{name}")
                          for name in self.sentences]
        if self.decodes is not None:
            source_dim = (cfg.sentence_dim if self.decodes == "reconstruct"
                          else f_dim)
            self.decoder = LstmDecoder(rng, cfg, source_dim, len(vocab),
                                       attention=self.decodes == "attend")

    # -- parameter bookkeeping (`params()` comes from _Part)

    def manifest(self) -> dict:
        return {"variant": self.variant, "config": asdict(self.cfg),
                "vocab_sha256": self.vocab.sha256()}

    def param_hash(self) -> str:
        h = hashlib.sha256()
        for name, p in sorted(self.params().items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(p.data))
        return h.hexdigest()

    def save(self, path, extra_meta: dict | None = None) -> None:
        arrays = {n: p.data for n, p in self.params().items()}
        arrays["embedding.frozen"] = self.embedding.frozen
        meta = {"model": self.manifest(),
                "vocab_tokens": self.vocab.id_to_token[self.vocab.reserved_size:]}
        meta.update(extra_meta or {})
        save_checkpoint(path, arrays, trainable=set(self.params()), meta=meta)

    # -- shared forward pieces

    @staticmethod
    def _rows(batch: Batch, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(ids, lengths) of one of the batch's sentences."""
        ids = getattr(batch, name)
        if ids is None:
            raise ModelError(f"batch carries no {name}s")
        return ids, getattr(batch, f"{name}_len")

    def features(self, batch: Batch):
        """Encodes the declared sentences; returns (fv, *states), one
        states tensor per sentence, or None if no head reads them. fv.f is
        [u, v, |u-v|, u*v] for a pair and the sentence vector for one."""
        encoded = [getattr(self, f"{name}_encoder").encode(
                       self.embedding, *self._rows(batch, name), bool(self.heads))
                   for name in self.sentences]
        vectors = [u for u, _ in encoded]
        if len(vectors) == 2:
            fv = feature_vector(*vectors)
        else:
            fv = FeatureVector(f=vectors[0], u=vectors[0], v=None)
        return (fv, *(states for _, states in encoded))

    def _condition(self, batch: Batch):
        """(feature vector, attention context (empty without heads),
        logits or None)."""
        fv, *states = self.features(batch)
        logits = self.classifier.logits(fv.f) if self.has_classifier else None
        ctx = [head.precompute(seq, self._rows(batch, name)[1])
               for head, name, seq in zip(self.heads, self.sentences, states)]
        return fv, ctx, logits

    def _first_words(self, classes: np.ndarray | None, size: int) -> np.ndarray:
        """The decoder's first input: the label word of each class, or
        <bos> when there are no classes."""
        if classes is None:
            return np.full(size, self.vocab.bos_id, dtype=np.int64)
        return np.array([self.vocab.label_vocab_id(c) for c in classes])

    def _teacher_forced(self, source: ad.Tensor, ids: np.ndarray,
                        lengths: np.ndarray, classes: np.ndarray | None,
                        train: bool, rng: np.random.Generator | None = None,
                        ctx=None) -> DecodeResult:
        """Decodes padded <bos> ... <eos> rows from `source`, with the
        first word of `classes` in place of <bos> as the first input."""
        inputs = ids[:, :-1].copy()
        inputs[:, 0] = self._first_words(classes, len(ids))
        return self.decoder.teacher_forced(self.embedding, source, inputs,
                                           ids[:, 1:], lengths - 1, train, rng,
                                           attn_ctx=ctx)

    def _reconstruction_rows(self, batch: Batch, name: str):
        """A sentence as <bos> sentence <eos> rows, cut to the decode cap."""
        cap = self.cfg.max_decode_len
        ids, lengths = self._rows(batch, name)
        return wrap_rows(self.vocab, [row[:min(n, cap)]
                                      for row, n in zip(ids, lengths)])

    def loss(self, batch: Batch, train: bool = True,
             rng: np.random.Generator | None = None,
             alpha: float | None = None) -> tuple[ad.Tensor, dict]:
        """The label loss with a classifier; with a decoder, the summed
        teacher-forced NLL over the batch size (the first gold explanation
        from f and the gold label word, or the premise from u and the
        hypothesis from v); with both, `joint_loss`."""
        fv, ctx, logits = self._condition(batch)
        info = {}
        if logits is not None:
            # before the loss overwrites the logits with probabilities
            info["preds"] = logits.data.argmax(axis=1)
            per_row = ad.cross_entropy_rows(logits, batch.labels)
            label_loss = ad.scale(ad.sum_(per_row), 1.0 / batch.size)
            if self.decodes is None:
                return label_loss, info
        if self.decodes == "reconstruct":
            nll = ad.add(*(self._teacher_forced(
                               u, *self._reconstruction_rows(batch, name),
                               None, train, rng).nll_sum
                           for u, name in ((fv.u, "premise"),
                                           (fv.v, "hypothesis"))))
        else:
            classes = None if logits is None else batch.labels
            nll = self._teacher_forced(fv.f, *self._rows(batch, "explanation"),
                                       classes, train, rng, ctx).nll_sum
        expl_loss = ad.scale(nll, 1.0 / batch.size)
        if logits is None:
            return expl_loss, info
        info.update(label_loss=float(label_loss.data),
                    expl_loss=float(expl_loss.data))
        return joint_loss(label_loss, expl_loss, alpha), info

    def eval_batch(self, batch: Batch, nll: bool = False, greedy: bool = False):
        """From one `_condition`: (labels, (summed NLL, tokens, correct
        tokens) with `nll`, (explanations, empty flags) with `greedy`),
        None where not asked or not given. A classifier variant starts
        both from the predicted label word."""
        if (nll or greedy) and not self.explains:
            raise ModelError(f"{self.variant} does not explain")
        fv, ctx, logits = self._condition(batch)
        preds = None if logits is None else logits.data.argmax(axis=1)
        scored = generated = None
        if nll:
            res = self._teacher_forced(fv.f, *self._rows(batch, "explanation"),
                                       preds, False, ctx=ctx)
            scored = float(res.nll_sum.data), res.n_tokens, res.n_correct
        if greedy:
            generated = self.decoder.greedy(
                self.embedding, fv.f, self._first_words(preds, batch.size),
                self.vocab.eos_id, attn_ctx=ctx)
        return preds, scored, generated

    def predict_labels(self, batch: Batch) -> np.ndarray:
        if not self.has_classifier:
            raise ModelError(f"{self.variant} has no classifier")
        return self.eval_batch(batch)[0]

    def explanation_nll(self, batch: Batch):
        """(summed NLL, tokens, correct tokens) for perplexity."""
        return self.eval_batch(batch, nll=True)[1]


class PairClassifier(BaseModel):
    """Premise/hypothesis encoder pair with the feature-vector MLP."""

    variant = "bilstm-max"
    sentences = ("premise", "hypothesis")
    has_classifier = True


class HypClassifier(BaseModel):
    """Hypothesis-only label baseline."""

    variant = "hyp-to-label"
    sentences = ("hypothesis",)
    has_classifier = True


class HypExplainer(BaseModel):
    """Hypothesis-only explanation generator."""

    variant = "hyp-to-expl"
    sentences = ("hypothesis",)
    decodes = "explain"


class PredictExplain(BaseModel):
    """Classify from f, then decode an explanation conditioned on the
    label word (gold at training time, predicted at test time)."""

    variant = "pred-expl"
    sentences = ("premise", "hypothesis")
    has_classifier = True
    decodes = "explain"


class ExplainSeq2Seq(BaseModel):
    """pred-expl without the classifier and without the label token."""

    variant = "expl-pred-seq2seq"
    sentences = ("premise", "hypothesis")
    decodes = "explain"


class ExplainAttention(BaseModel):
    """Attention variant: two separate, structurally identical heads
    attend over premise and hypothesis states while decoding."""

    variant = "expl-pred-att"
    sentences = ("premise", "hypothesis")
    decodes = "attend"


class ExplanationClassifier(BaseModel):
    """Label prediction from the explanation text alone."""

    variant = "expl-to-label"
    sentences = ("explanation",)
    has_classifier = True


class AutoEncoder(BaseModel):
    """Classifier trunk plus one shared decoder that reconstructs the
    premise from u and the hypothesis from v."""

    variant = "autoenc"
    sentences = ("premise", "hypothesis")
    has_classifier = True
    decodes = "reconstruct"


class ExplainThenPredict:
    """Pipeline: generate an explanation, then label it in isolation."""

    def __init__(self, generator: BaseModel, expl_classifier: BaseModel):
        if not generator.explains:
            raise ModelError(f"{generator.variant} cannot generate "
                             "explanations for explain-then-predict")
        if not isinstance(expl_classifier, ExplanationClassifier):
            raise ModelError(f"{expl_classifier.variant} does not label "
                             "explanations; explain-then-predict needs "
                             "expl-to-label")
        if expl_classifier.vocab.sha256() != generator.vocab.sha256():
            raise ModelError("explanation classifier and generator use "
                             "different vocabularies")
        self.generator = generator
        self.expl_classifier = expl_classifier

    def predict(self, batch: Batch, generated):
        """Returns (labels, explanation ids, empty-explanation flags).

        Labels `generated`, the generator's (ids, flags) for the batch,
        in one batched encode; each label still depends only on its own
        explanation, since padding never reaches real positions. An empty
        generation is classified from the bare <bos><eos> pair and
        flagged.
        """
        expl, empty = generated
        ids, lengths = wrap_rows(self.generator.vocab, expl)
        wrapped = replace(batch, explanation=ids, explanation_len=lengths)
        return self.expl_classifier.predict_labels(wrapped), expl, empty


VARIANTS: dict[str, type[BaseModel]] = {
    cls.variant: cls for cls in (
        PairClassifier, HypClassifier, HypExplainer, PredictExplain,
        ExplainSeq2Seq, ExplainAttention, ExplanationClassifier, AutoEncoder)
}


def variant_class(name: str) -> type[BaseModel]:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ModelError(f"unknown variant {name!r}; "
                         f"choose from {sorted(VARIANTS)}") from None


def build_model(cfg: ModelConfig, vocab: Vocabulary, table: EmbeddingTable,
                rng: np.random.Generator) -> BaseModel:
    return variant_class(cfg.variant)(cfg, vocab, table, rng)


def load_model(path) -> BaseModel:
    """Rebuild a model from a self-contained checkpoint directory, which
    must hold exactly the tensors of the model its meta describes."""
    arrays, manifest = load_checkpoint(path)
    try:
        meta = manifest["meta"]
        cfg = ModelConfig(**meta["model"]["config"])
        vocab = Vocabulary(meta["vocab_tokens"])
        vocab_hash = meta["model"]["vocab_sha256"]
        table = EmbeddingTable(matrix=arrays.pop("embedding.frozen"))
    except (KeyError, TypeError, ValueError) as err:
        raise ModelError(f"malformed checkpoint {path}: {err!r}") from None
    if vocab.sha256() != vocab_hash:
        raise ModelError(f"vocabulary hash mismatch in {path}")
    model = build_model(cfg, vocab, table, None)   # every array overwritten below
    params = model.params()
    if arrays.keys() != params.keys():
        raise ModelError(f"{path} does not hold a {cfg.variant} model: missing "
                         f"{sorted(params.keys() - arrays.keys())}, extra "
                         f"{sorted(arrays.keys() - params.keys())}")
    for name, p in params.items():
        if tuple(arrays[name].shape) != p.shape:
            raise ModelError(f"shape mismatch for {name}")
        p.data = arrays[name]
    return model
