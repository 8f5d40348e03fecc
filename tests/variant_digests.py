"""Digests of what every variant computes at toy sizes, in float32.

For each variant at H = 4 and H = 16: the checkpoint's tensor names and
shapes, `param_hash` at init, after one SGD step and after a save/load
round trip, and sha256 digests of the training loss, every gradient and
the `evaluation_pass` outputs (labels, NLL, token counts, greedy ids).

    python tests/variant_digests.py > digests.json

prints them as JSON. `tests/fixtures/variant_digests.json` holds the
digests recorded when teacher forcing began scoring only the real
target rows, which moved the float32 bits of the explaining variants
(the NLL and output-head gradients sum fewer rows), after the float64
differential test against `oracles.teacher_forced_dense` passed. The
`expl-pred-att` entries were recorded again when its steps joined
`lstm_layer`, after the float64 differential test against the composed
attention decoder passed: the embedding's and the contexts' parts of
the gate input are now two GEMMs, which round float32 differently from
one GEMM over the concatenated input. All were recorded again when the
LSTM input projection began reading the real step-rows only, after the
float64 differential test against the projection of all step-rows
passed: the gradients of wi and b now sum the real step-rows alone, and
those of a reverse direction's wh in step order (the packed layout both
directions share); losses and evaluation outputs did not move. They
were recorded again when the gate kernel became one tanh pass (sigmoid
as 0.5 tanh(x/2) + 0.5), after the float64 differential test against
the two-exp kernel (`oracles.lstm_gates_two_exp`) passed at 1e-10: the
gradients, and so the parameters after a step, moved in every variant;
losses and evaluation outputs did not. They were recorded again when
the softmax and NLL records became one op (`cross_entropy_rows`),
after the float64 differential test against the composed pair
(`oracles.softmax`, `oracles.nll_rows`) passed at 1e-10: its logits'
gradient is g * (p - onehot), rounded once, where the pair rounded
-g / p at the target and then the softmax backward, so gradients and
parameters after a step moved in every variant; losses and evaluation
outputs did not.
`test_models.TestParentParity` runs this script and compares; a change
that moves the digests passes such a test against the code it replaces
before they are recorded again. Float32 GEMM and SIMD results depend
on the kernels picked, so it is run with the pins of `PINNED_ENV`: one
OpenBLAS thread, Haswell GEMM kernels and no AVX-512 numpy loops. Run
in any other environment, it prints nothing, names each pin that is
unset or different, and exits 1.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell",
              "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}



def unpinned() -> list[str]:
    """A line for each pin of PINNED_ENV that the environment leaves unset
    or sets to another value."""
    return [f"{k} is {os.environ[k]!r}, not {v!r}" if k in os.environ
            else f"{k} is unset, not {v!r}"
            for k, v in PINNED_ENV.items() if os.environ.get(k) != v]


def refuse_unpinned() -> None:
    """Exits 1 naming each pin that is not as PINNED_ENV sets it, so that
    digests recorded under other kernels are never printed."""
    if bad := unpinned():
        sys.exit("refusing to record digests outside PINNED_ENV:\n"
                 + "\n".join(bad))


VARIANTS = ("bilstm-max", "hyp-to-label", "hyp-to-expl", "pred-expl",
            "expl-pred-seq2seq", "expl-pred-att", "expl-to-label", "autoenc")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def variant_digests(variant: str, hidden: int) -> dict:
    from nliexpl import autodiff as ad
    from nliexpl.data import encode_corpus
    from nliexpl.evaluation import evaluation_pass
    from nliexpl.models import load_model

    from model_utils import toy_setup
    from synth import make_examples

    model, batch, vocab = toy_setup(variant, n=6, hidden=hidden, dec=hidden,
                                    max_len=8)
    alpha = 0.6 if model.takes_alpha else None
    out = {"init_hash": model.param_hash()}
    with ad.Tape() as tape:
        loss, _ = model.loss(batch, rng=np.random.default_rng(5),
                             alpha=alpha)
    ad.backward(tape, loss)
    params = model.params()
    out["loss"] = _digest(np.asarray(loss.data).tobytes())
    out["grads"] = _digest(*(
        name.encode() + (b"none" if p.grad is None else p.grad.tobytes())
        for name, p in sorted(params.items())))
    ad.sgd_step(params, 0.1, None)
    out["step_hash"] = model.param_hash()
    res = evaluation_pass(model, encode_corpus(make_examples(6, seed=0), vocab),
                          batch_size=4, nll=model.explains,
                          greedy=model.explains)
    out["eval"] = _digest(res.preds, res.golds, np.float64(res.total_nll).hex(),
                          res.n_tokens, res.n_correct, res.generated, res.empty)
    with tempfile.TemporaryDirectory() as tmp:
        model.save(Path(tmp) / "ckpt")
        manifest = json.loads((Path(tmp) / "ckpt" / "manifest.json").read_text())
        out["loaded_hash"] = load_model(Path(tmp) / "ckpt").param_hash()
    out["tensors"] = sorted(f"{t['name']} {t['shape']} trainable={t['trainable']}"
                            for t in manifest["tensors"])
    return out


def all_digests() -> dict:
    return {f"{variant}/H{hidden}": variant_digests(variant, hidden)
            for variant in VARIANTS for hidden in (4, 16)}


if __name__ == "__main__":
    refuse_unpinned()
    sys.path.insert(0, str(Path(__file__).parent))
    json.dump(all_digests(), sys.stdout, indent=1)
    print()
