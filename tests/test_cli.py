"""End-to-end CLI tests over a temporary synthetic corpus."""

import contextlib
import csv
import io
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nliexpl import cli
from nliexpl.cli import main
from nliexpl.config import (SCHEMA, ConfigError, apply_override, empty_config,
                            load_config)
from nliexpl.evaluation import EXPL_AT_K_MODES
from nliexpl.training import TrainConfig
from synth import make_examples, write_corpus_csv


@pytest.fixture
def corpus(tmp_path):
    train = tmp_path / "train.csv"
    valid = tmp_path / "valid.csv"
    write_corpus_csv(train, make_examples(24, seed=0))
    write_corpus_csv(valid, make_examples(9, seed=50, n_explanations=3))
    return train, valid


@pytest.fixture
def toy_config(tmp_path, corpus):
    train, valid = corpus
    path = tmp_path / "toy.ini"
    path.write_text(f"""
[data]
train = {train}
valid = {valid}
embedding_dim = 8
min_count = 1

[model]
variant = pred-expl
encoder_hidden = 6
decoder_hidden = 6
classifier_width = 6

[training]
alpha = 0.6
epochs = 2
batch_size = 8
seed = 3
""")
    return path


def run_dirs(root):
    return [p for p in Path(root).iterdir() if p.is_dir()]


class TestConfigFile:
    def test_load_and_types(self, toy_config):
        config = load_config(toy_config)
        assert config["model"]["variant"] == "pred-expl"
        assert config["training"]["alpha"] == 0.6
        assert config["training"]["epochs"] == 2
        assert config["data"]["min_count"] == 1

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nvariannt = typo\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[modle]\nvariant = x\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(bad)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "nope.ini")

    def test_config_not_utf8_exits_1(self, tmp_path, toy_config, capsys):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes(toy_config.read_bytes() + b"# caf\xff\n")
        line = cfg.read_bytes().count(b"\n")
        code = main(["train", "--config", str(cfg),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1
        assert f"{cfg}:{line}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text, where", [
        ("variant = pred-expl\n", "malformed.ini', line: 1"),
        ("[model]\nvariant = pred-expl\nvariant = pred-expl\n",
         "malformed.ini' [line 3]"),
    ])
    def test_malformed_config_exits_1(self, tmp_path, capsys, text, where):
        cfg = tmp_path / "malformed.ini"
        cfg.write_text(text)
        code = main(["train", "--config", str(cfg),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1
        assert where in capsys.readouterr().err

    def test_override(self, toy_config):
        config = load_config(toy_config)
        apply_override(config, "training.lr", "0.05")
        assert config["training"]["lr"] == 0.05
        with pytest.raises(ConfigError):
            apply_override(config, "training.nope", "1")

    def test_expl_at_k_mode_is_one_of_the_modes(self, tmp_path, toy_config,
                                                corpus, capsys):
        """Every mode `expl_at_k` accepts parses, any other value is a
        ConfigError, and `eval` refuses it before loading anything."""
        config = load_config(toy_config)
        for mode in EXPL_AT_K_MODES:
            apply_override(config, "eval.expl_at_k_mode", mode)
            assert config["eval"]["expl_at_k_mode"] == mode
        with pytest.raises(ConfigError, match="expl_at_k_mode"):
            apply_override(config, "eval.expl_at_k_mode", "bogus")
        code = main(["eval", "--config", str(toy_config),
                     "--checkpoint", str(tmp_path / "no-checkpoint"),
                     "--corpus", str(corpus[1]),
                     "--set", "eval.expl_at_k_mode", "bogus",
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1
        assert ("bad value for [eval] expl_at_k_mode: 'bogus'"
                in capsys.readouterr().err)


class TestFilterCommand:
    def test_writes_report_and_survivors(self, tmp_path):
        examples = make_examples(6, seed=1)
        # make one explanation an exact template instantiation
        e = examples[0]
        e.explanation_texts = [f"{e.premise_text} implies {e.hypothesis_text}"]
        e.label = "entailment"
        corpus = tmp_path / "c.csv"
        write_corpus_csv(corpus, examples)
        report = tmp_path / "report.csv"
        survivors = tmp_path / "survivors.csv"
        code = main(["filter", "--input", str(corpus), "--out", str(report),
                     "--survivors", str(survivors),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 0
        rows = list(csv.DictReader(report.open()))
        assert len(rows) == 6
        byid = {r["id"]: r for r in rows}
        assert byid["syn0"]["filtered"] == "1"
        assert byid["syn0"]["distance"] == "0"
        surv = list(csv.DictReader(survivors.open()))
        assert all(r["pairID"] != "syn0" for r in surv)
        assert len(surv) == 5

    def test_input_files_not_mutated(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_corpus_csv(corpus, make_examples(4, seed=2))
        before = corpus.read_bytes()
        main(["filter", "--input", str(corpus),
              "--out-root", str(tmp_path / "runs")])
        assert corpus.read_bytes() == before

    def test_repeated_example_id_exits_1(self, tmp_path, capsys):
        examples = make_examples(4, seed=3)
        examples[2].id = examples[0].id
        corpus = tmp_path / "c.csv"
        write_corpus_csv(corpus, examples)
        code = main(["filter", "--input", str(corpus),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1
        assert "repeated on rows 2 and 4" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["filter", "--input", str(tmp_path / "nope.csv"),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestValidateCommand:
    def test_report_written(self, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            "pairID,gold_label,Sentence1,Sentence2,Explanation_1,"
            "Sentence1_Highlighted_1,Sentence2_Highlighted_1\n"
            'v1,neutral,a dog runs,a cat sits,too short,"0","1"\n')
        out = tmp_path / "validation.csv"
        code = main(["validate", "--input", str(corpus), "--out", str(out),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["passed"] == "0"
        assert "too-short" in rows[0]["violation_codes"]
        assert "forbidden-premise-highlight" in rows[0]["violation_codes"]


class TestTrainCommand:
    def test_train_and_rundir_layout(self, tmp_path, toy_config, capsys):
        out_root = tmp_path / "runs"
        code = main(["train", "--config", str(toy_config),
                     "--out-root", str(out_root)])
        assert code == 0
        (run_dir,) = run_dirs(out_root)
        assert "seed3" in run_dir.name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["model"]["variant"] == "pred-expl"
        assert len(manifest["inputs"]) == 2   # train + valid hashes
        env = manifest["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["numpy"] == np.__version__
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert env["threads"] == {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        assert env["cpu_count"] == os.cpu_count()
        assert (run_dir / "run.json").exists()
        assert (run_dir / "checkpoints" / "best" / "params.bin").exists()
        assert (run_dir / "reports" / "valid_report.json").exists()
        out = capsys.readouterr().out
        assert "epoch 0" in out and "accuracy" in out

    def test_flag_overrides_resolve_selected_configuration(self, tmp_path,
                                                           toy_config):
        # flags override the file; the selected pred-expl setup parses
        out_root = tmp_path / "runs"
        code = main(["train", "--config", str(toy_config),
                     "--variant", "pred-expl", "--alpha", "0.6",
                     "--decoder", "512", "--epochs", "1",
                     "--out-root", str(out_root)])
        assert code == 0
        (run_dir,) = run_dirs(out_root)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["training"]["alpha"] == 0.6
        assert manifest["config"]["model"]["decoder_hidden"] == 512

    def test_unknown_flag_exits_2_with_usage(self, toy_config, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(toy_config), "--bogus-flag", "1"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_variant_exits_1(self, tmp_path, corpus, capsys):
        train, valid = corpus
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[data]\ntrain={train}\nvalid={valid}\n"
                       "embedding_dim=8\nmin_count=1\n")
        code = main(["train", "--config", str(cfg),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1

    @staticmethod
    def _forbid_corpus_loading(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("corpus loaded before the config was checked")

        monkeypatch.setattr(cli, "load_corpus", fail)

    def test_criterion_key_is_unknown(self, tmp_path, toy_config, capsys,
                                      monkeypatch):
        # the selection criterion follows from the variant; no key sets it
        self._forbid_corpus_loading(monkeypatch)
        cfg = tmp_path / "criterion.ini"
        cfg.write_text(toy_config.read_text() + "criterion = val-accuracy\n")
        out_root = tmp_path / "runs"
        code = main(["train", "--config", str(cfg),
                     "--out-root", str(out_root)])
        assert code == 1
        assert "unknown config key [training] criterion" in \
            capsys.readouterr().err
        assert not out_root.exists()

    def test_unknown_variant_exits_1_before_loading(self, tmp_path, toy_config,
                                                    capsys, monkeypatch):
        self._forbid_corpus_loading(monkeypatch)
        out_root = tmp_path / "runs"
        code = main(["train", "--config", str(toy_config), "--variant", "bert",
                     "--out-root", str(out_root)])
        assert code == 1
        assert "unknown variant 'bert'" in capsys.readouterr().err
        assert not out_root.exists()

    @pytest.mark.parametrize("args", [
        ["train", "--batch-size", "0"], ["grid", "--batch-size", "0"],
        ["train", "--epochs", "0"], ["grid", "--epochs", "0"],
        ["train", "--epochs", "-1"], ["train", "--set", "training.epochs", "0"],
    ])
    def test_non_positive_size_exits_1_before_loading(self, tmp_path,
                                                      toy_config, capsys,
                                                      monkeypatch, args):
        # direct flags go through the same typed check as the config file
        self._forbid_corpus_loading(monkeypatch)
        out_root = tmp_path / "runs"
        code = main([*args, "--config", str(toy_config),
                     "--out-root", str(out_root)])
        assert code == 1
        assert "must be at least 1, got" in capsys.readouterr().err
        assert not out_root.exists()

    @pytest.mark.parametrize("args,message", [
        (["grid", "--decoders", "x"], "bad value for --decoders: 'x'"),
        (["grid", "--alphas", "0.5,y"], "bad value for --alphas: '0.5,y'"),
        (["grid", "--decoders", "0"], "decoder_hidden=0"),
        (["train", "--decoder", "0"], "decoder_hidden=0"),
        (["train", "--encoder", "-3"], "encoder_hidden=-3"),
        (["train", "--set", "model.max_decode_len", "0"], "max_decode_len=0"),
        (["train", "--set", "training.dropout", "1.5"], "dropout must be in"),
        (["train", "--set", "training.dropout", "-0.2"], "dropout must be in"),
        (["train", "--set", "training.lr", "nan"], "lr must be finite"),
        (["train", "--set", "training.lr", "-0.1"], "lr must be finite"),
        (["train", "--set", "training.decay", "0"], "decay must be in"),
        (["train", "--set", "training.decay", "1.5"], "decay must be in"),
        (["train", "--set", "training.clip_norm", "0"], "clip_norm must be"),
        (["train", "--set", "data.sentence_limit", "-1"],
         "bad value for [data] sentence_limit: '-1'"),
        (["train", "--set", "data.explanation_limit", "0"],
         "bad value for [data] explanation_limit: '0'"),
        (["train", "--set", "data.sentence_limit", "0"],
         "bad value for [data] sentence_limit: '0'"),
        (["train", "--set", "data.explanation_limit", "-1"],
         "bad value for [data] explanation_limit: '-1'"),
    ])
    def test_malformed_run_setting_exits_1_before_loading(
            self, tmp_path, toy_config, capsys, monkeypatch, args, message):
        self._forbid_corpus_loading(monkeypatch)
        out_root = tmp_path / "runs"
        code = main([*args, "--config", str(toy_config),
                     "--out-root", str(out_root)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out_root.exists()

    @pytest.mark.parametrize("section,key", [("data", "test"),
                                             ("training", "weight_decay")])
    def test_removed_key_is_unknown(self, tmp_path, toy_config, capsys,
                                    monkeypatch, section, key):
        self._forbid_corpus_loading(monkeypatch)
        cfg = tmp_path / "removed.ini"
        cfg.write_text(toy_config.read_text().replace(
            f"[{section}]\n", f"[{section}]\n{key} = 0\n"))
        out_root = tmp_path / "runs"
        code = main(["train", "--config", str(cfg),
                     "--out-root", str(out_root)])
        assert code == 1
        assert f"unknown config key [{section}] {key}" in \
            capsys.readouterr().err
        assert not out_root.exists()

    @staticmethod
    def _drop_explanation(path, index):
        """Blanks every explanation of row `index`; returns its id."""
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for col in ("Explanation_1", "Explanation_2", "Explanation_3"):
            rows[index][col] = ""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return rows[index]["pairID"]

    @pytest.mark.parametrize("variant,split", [("pred-expl", "train"),
                                               ("hyp-to-expl", "valid")])
    def test_missing_explanation_exits_1_before_training(
            self, tmp_path, toy_config, corpus, capsys, monkeypatch, variant,
            split):
        """A variant that decodes explanations needs one for every example;
        one without is named, with its split, before any step is taken."""
        path = corpus[0] if split == "train" else corpus[1]
        missing = self._drop_explanation(path, 4)

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the input was checked")

        monkeypatch.setattr("nliexpl.autodiff.sgd_step", no_step)
        code = main(["train", "--config", str(toy_config),
                     "--variant", variant, "--set", "training.alpha",
                     "0.6" if variant == "pred-expl" else "",
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"{split} split: {variant} needs an explanation for every "
                f"example; 1 example(s) have none: {missing}") in err

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_refused_run_leaves_no_run_directory(self, tmp_path, toy_config,
                                                 corpus, capsys, command):
        self._drop_explanation(corpus[0], 4)
        out_root = tmp_path / "runs"
        code = main([command, "--config", str(toy_config),
                     "--variant", "pred-expl", "--set", "training.alpha", "0.6",
                     "--out-root", str(out_root)])
        assert code == 1
        assert "pred-expl needs an explanation" in capsys.readouterr().err
        assert not out_root.exists()

    @pytest.mark.parametrize("split", ["train", "valid"])
    def test_split_that_encodes_to_nothing_exits_1_before_the_run(
            self, tmp_path, toy_config, corpus, capsys, monkeypatch, split):
        """Rows with an empty hypothesis are dropped at encoding; a split
        left with none is named and refused before a run directory is
        made or a step is taken."""
        path = corpus[0] if split == "train" else corpus[1]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, "Sentence2": ""} for row in rows)

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the input was checked")

        monkeypatch.setattr("nliexpl.autodiff.sgd_step", no_step)
        out_root = tmp_path / "runs"
        code = main(["train", "--config", str(toy_config),
                     "--out-root", str(out_root)])
        assert code == 1
        assert (f"the {split} split has no example with both a premise and "
                "a hypothesis") in capsys.readouterr().err
        assert not out_root.exists()

    def test_missing_explanation_does_not_stop_a_classifier(
            self, tmp_path, toy_config, corpus):
        for path in corpus:
            self._drop_explanation(path, 4)
        code = main(["train", "--config", str(toy_config),
                     "--variant", "bilstm-max", "--set", "training.alpha", "",
                     "--epochs", "1", "--out-root", str(tmp_path / "runs")])
        assert code == 0

    def test_non_finite_embedding_exits_1_before_the_run(self, tmp_path,
                                                         toy_config, capsys):
        word = make_examples(24, seed=0)[0].explanations[0][0]
        vecs = tmp_path / "vecs.txt"
        vecs.write_text(f"{word} " + " ".join(["0.5"] * 7 + ["nan"]) + "\n")
        cfg = tmp_path / "emb.ini"
        cfg.write_text(toy_config.read_text().replace(
            "[data]\n", f"[data]\nembeddings = {vecs}\n"))
        out_root = tmp_path / "runs"
        code = main(["train", "--config", str(cfg),
                     "--out-root", str(out_root)])
        assert code == 1
        assert f"vecs.txt:1: non-finite value for {word!r}" in \
            capsys.readouterr().err
        assert not out_root.exists()

    @pytest.mark.parametrize("key", ["batch_size", "epochs"])
    def test_empty_value_for_defaulted_key_exits_1(self, tmp_path, toy_config,
                                                   capsys, monkeypatch, key):
        self._forbid_corpus_loading(monkeypatch)
        cfg = tmp_path / "empty.ini"
        text = toy_config.read_text()
        line = next(ln for ln in text.splitlines() if ln.startswith(key))
        cfg.write_text(text.replace(line, f"{key} ="))
        code = main(["train", "--config", str(cfg),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1
        assert f"[training] {key} needs a value" in capsys.readouterr().err


class TestEvalAndGenerate:
    @pytest.fixture
    def trained(self, tmp_path, toy_config):
        out_root = tmp_path / "runs"
        assert main(["train", "--config", str(toy_config),
                     "--out-root", str(out_root)]) == 0
        (run_dir,) = run_dirs(out_root)
        return run_dir / "checkpoints" / "best"

    def test_eval_command(self, tmp_path, toy_config, corpus, trained, capsys):
        _, valid = corpus
        code = main(["eval", "--config", str(toy_config),
                     "--checkpoint", str(trained), "--corpus", str(valid),
                     "--inter-annotator",
                     "--out-root", str(tmp_path / "eval-runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "perplexity" in out
        (run_dir,) = run_dirs(tmp_path / "eval-runs")
        report = json.loads((run_dir / "reports" / "eval_report.json").read_text())
        assert report["accuracy"] is not None
        assert report["perplexity"] >= 1.0

    def test_eval_names_an_example_without_explanation(self, tmp_path,
                                                       toy_config, corpus,
                                                       capsys):
        """expl-to-label labels the gold explanations, so `eval` names an
        example that has none and exits 1."""
        _, valid = corpus
        missing = TestTrainCommand._drop_explanation(valid, 2)
        ckpt = TestExplainThenPredictCommand._save(
            tmp_path / "clf", "expl-to-label",
            make_examples(9, seed=50, n_explanations=3))
        code = main(["eval", "--config", str(toy_config),
                     "--checkpoint", str(ckpt), "--corpus", str(valid),
                     "--out-root", str(tmp_path / "eval-runs")])
        assert code == 1
        assert ("expl-to-label needs an explanation for every example; "
                f"1 example(s) have none: {missing}") in capsys.readouterr().err

    def test_eval_rejects_bad_annotations(self, tmp_path, toy_config, corpus,
                                          trained, capsys):
        _, valid = corpus
        ann = tmp_path / "ann.csv"
        ann.write_text("id,predicted_label_correct,k,n\na,1,x,1\n")
        code = main(["eval", "--config", str(toy_config),
                     "--checkpoint", str(trained), "--corpus", str(valid),
                     "--annotations", str(ann),
                     "--out-root", str(tmp_path / "eval-runs")])
        assert code == 1
        assert "ann.csv:2: k and n must be integers" in capsys.readouterr().err

    def test_eval_rejects_annotation_row_past_the_header(
            self, tmp_path, toy_config, corpus, trained, capsys):
        _, valid = corpus
        ann = tmp_path / "ann.csv"
        ann.write_text("id,predicted_label_correct,k,n\na,1,1,1,extra\n")
        code = main(["eval", "--config", str(toy_config),
                     "--checkpoint", str(trained), "--corpus", str(valid),
                     "--annotations", str(ann),
                     "--out-root", str(tmp_path / "eval-runs")])
        assert code == 1
        assert ("ann.csv:2: 5 cells, more than the header's 4"
                in capsys.readouterr().err)

    def test_generate_dump(self, tmp_path, toy_config, corpus, trained):
        _, valid = corpus
        out = tmp_path / "dump.csv"
        code = main(["generate", "--config", str(toy_config),
                     "--checkpoint", str(trained), "--corpus", str(valid),
                     "--out", str(out),
                     "--out-root", str(tmp_path / "gen-runs")])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 9
        assert set(rows[0]) == {"id", "premise", "hypothesis",
                                "predicted_label", "explanation"}

    @pytest.mark.parametrize("variant", ["bilstm-max", "hyp-to-label",
                                         "autoenc"])
    def test_generate_dump_of_a_model_that_does_not_explain(
            self, tmp_path, toy_config, corpus, variant, capsys):
        """A classifier with no explanation to give still gets one row
        per example: its label and an empty explanation."""
        _, valid = corpus
        examples = make_examples(9, seed=50, n_explanations=3)
        ckpt = TestExplainThenPredictCommand._save(tmp_path / "m", variant,
                                                   examples)
        out = tmp_path / "dump.csv"
        assert main(["generate", "--config", str(toy_config),
                     "--checkpoint", str(ckpt), "--corpus", str(valid),
                     "--out", str(out),
                     "--out-root", str(tmp_path / "gen-runs")]) == 0
        assert "(9 rows)" in capsys.readouterr().out
        rows = list(csv.DictReader(out.open()))
        assert [r["id"] for r in rows] == [e.id for e in examples]
        assert {r["predicted_label"] for r in rows} <= {"0", "1", "2"}
        assert all(r["explanation"] == "" for r in rows)

    def test_generate_applies_configured_truncation(self, tmp_path,
                                                    toy_config, corpus,
                                                    trained):
        """`generate` at [data] sentence_limit = 2 writes what it writes
        for a corpus whose sentences are cut to two words beforehand."""
        _, valid = corpus
        examples = make_examples(9, seed=50, n_explanations=3)
        for e in examples:
            e.premise_text = " ".join(e.premise_text.split()[:2])
            e.hypothesis_text = " ".join(e.hypothesis_text.split()[:2])
        cut = tmp_path / "cut.csv"
        write_corpus_csv(cut, examples)

        def generated(corpus_path, *extra):
            out = tmp_path / f"dump{len(extra)}.csv"
            assert main(["generate", "--config", str(toy_config), *extra,
                         "--checkpoint", str(trained),
                         "--corpus", str(corpus_path), "--out", str(out),
                         "--out-root", str(tmp_path / "gen-runs")]) == 0
            return [(r["id"], r["predicted_label"], r["explanation"])
                    for r in csv.DictReader(out.open())]

        assert generated(valid, "--set", "data.sentence_limit", "2") == \
            generated(cut)

    def test_generate_rejects_expl_to_label(self, tmp_path, toy_config,
                                            corpus, capsys):
        """`generate` feeds premise/hypothesis pairs only, so a model that
        reads explanations is refused up front, by name."""
        _, valid = corpus
        ckpt = TestExplainThenPredictCommand._save(
            tmp_path / "clf", "expl-to-label",
            make_examples(9, seed=50, n_explanations=3))
        code = main(["generate", "--config", str(toy_config),
                     "--checkpoint", str(ckpt), "--corpus", str(valid),
                     "--out", str(tmp_path / "dump.csv"),
                     "--out-root", str(tmp_path / "gen-runs")])
        assert code == 1
        assert "expl-to-label reads explanations" in capsys.readouterr().err
        assert not (tmp_path / "dump.csv").exists()

    def test_repr_export(self, tmp_path, toy_config, trained):
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("a dog runs in the park\na dog runs in the park\n"
                             "a cat sits\n")
        out = tmp_path / "matrix.txt"
        code = main(["repr-export", "--config", str(toy_config),
                     "--checkpoint", str(trained), "--sentences", str(sentences),
                     "--out", str(out),
                     "--out-root", str(tmp_path / "repr-runs")])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert "rows=3" in header and "cols=12" in header
        matrix = np.loadtxt(out)
        assert matrix.shape == (3, 12)   # 2 * encoder_hidden
        np.testing.assert_array_equal(matrix[0], matrix[1])  # duplicates agree

    def test_repr_export_row_matches_direct_encoding(self, tmp_path,
                                                     toy_config, trained):
        from nliexpl.models import load_model
        from nliexpl.data import tokenize
        lines = ["a dog runs", "a cat sits in the park", "dog",
                 "the man is sleeping on a bench", "a cat"]
        sentences = tmp_path / "several.txt"
        sentences.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.txt"
        # chunks of 2, 2 and 1 rows, each padded to its longest sentence
        assert main(["repr-export", "--config", str(toy_config),
                     "--set", "eval.batch_size", "2",
                     "--checkpoint", str(trained),
                     "--sentences", str(sentences), "--out", str(out),
                     "--out-root", str(tmp_path / "rr")]) == 0
        matrix = np.loadtxt(out)
        assert matrix.shape == (len(lines), 12)
        model = load_model(trained)
        for row, line in zip(matrix, lines):
            ids = np.array([model.vocab.encode(tokenize(line))])
            u, _ = model.premise_encoder.encode(model.embedding, ids,
                                                np.array([ids.shape[1]]))
            np.testing.assert_allclose(row, u.data[0], rtol=1e-6)

    def test_repr_export_bit_equal_to_states_returning_encode(
            self, tmp_path, toy_config, trained):
        """repr-export encodes with no states. Its matrix is, bit for bit,
        the pooled vectors of the same chunks encoded with their states,
        as the command ran when every encode returned them, and each row
        is the column max of its real states."""
        from nliexpl.models import load_model
        from nliexpl.data import pad_rows, tokenize
        lines = ["a dog runs", "a cat sits in the park", "dog",
                 "the man is sleeping on a bench", "a cat"]
        sentences = tmp_path / "several.txt"
        sentences.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.txt"
        assert main(["repr-export", "--config", str(toy_config),
                     "--set", "eval.batch_size", "2",
                     "--checkpoint", str(trained),
                     "--sentences", str(sentences), "--out", str(out),
                     "--out-root", str(tmp_path / "rr")]) == 0
        model = load_model(trained)
        ref = []
        for start in range(0, len(lines), 2):
            ids, lengths = pad_rows([model.vocab.encode(tokenize(line))
                                     for line in lines[start:start + 2]])
            u, states = model.premise_encoder.encode(model.embedding, ids,
                                                     lengths)
            _, row = np.nonzero(np.arange(ids.shape[1])[:, None] < lengths)
            for b in range(len(lengths)):
                np.testing.assert_array_equal(
                    u.data[b], states.data[row == b].max(axis=0))
            ref.append(u.data)
        # savetxt's %.18e keeps every bit of a float32
        np.testing.assert_array_equal(np.loadtxt(out),
                                      np.concatenate(ref).astype(np.float64))

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_non_positive_batch_size_exits_1(self, tmp_path, toy_config,
                                             trained, capsys, size):
        sentences = tmp_path / "s.txt"
        sentences.write_text("a dog runs\n")
        code = main(["repr-export", "--config", str(toy_config),
                     "--set", "eval.batch_size", size,
                     "--checkpoint", str(trained), "--sentences", str(sentences),
                     "--out-root", str(tmp_path / "rr")])
        assert code == 1
        assert "bad value for [eval] batch_size" in capsys.readouterr().err

    def test_sentences_not_utf8_exits_1(self, tmp_path, toy_config, trained,
                                        capsys):
        sentences = tmp_path / "s.txt"
        sentences.write_bytes(b"a dog runs\na \xe9t\xe9 cat\n")
        out = tmp_path / "m.txt"
        code = main(["repr-export", "--config", str(toy_config),
                     "--checkpoint", str(trained), "--sentences", str(sentences),
                     "--out", str(out), "--out-root", str(tmp_path / "rr")])
        assert code == 1
        assert f"{sentences}:2: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sentences_file_is_error(self, tmp_path, toy_config, trained):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = main(["repr-export", "--config", str(toy_config),
                     "--checkpoint", str(trained), "--sentences", str(empty),
                     "--out-root", str(tmp_path / "rr")])
        assert code == 1

    def test_malformed_checkpoint_exits_1(self, tmp_path, toy_config, trained,
                                          capsys):
        """A checkpoint whose meta has lost its vocabulary is an input
        error that names the missing key."""
        from nliexpl.checkpoint import load_checkpoint, save_checkpoint
        arrays, manifest = load_checkpoint(trained)
        del manifest["meta"]["vocab_tokens"]
        broken = save_checkpoint(tmp_path / "broken", arrays,
                                 meta=manifest["meta"])
        sentences = tmp_path / "s.txt"
        sentences.write_text("a dog runs\n")
        code = main(["repr-export", "--config", str(toy_config),
                     "--checkpoint", str(broken), "--sentences", str(sentences),
                     "--out-root", str(tmp_path / "rr")])
        assert code == 1
        assert "vocab_tokens" in capsys.readouterr().err


class TestExplainThenPredictCommand:
    """`eval --expl-classifier` on untrained checkpoints of a generator
    that has no classifier of its own."""

    @staticmethod
    def _save(path, variant, examples):
        from nliexpl.data import EmbeddingTable, build_vocab
        from nliexpl.models import ModelConfig, build_model
        vocab = build_vocab([e.premise for e in examples]
                            + [e.hypothesis for e in examples]
                            + [e.explanations[0] for e in examples],
                            min_count=1)
        cfg = ModelConfig(variant=variant, embed_dim=8, encoder_hidden=6,
                          classifier_width=6, decoder_hidden=6,
                          max_decode_len=10)
        rng = np.random.default_rng(5)
        table = EmbeddingTable.random(vocab, cfg.embed_dim, rng)
        build_model(cfg, vocab, table, rng).save(path)
        return path

    def _eval(self, tmp_path, toy_config, corpus, clf_variant, clf_examples):
        _, valid = corpus
        examples = make_examples(9, seed=50, n_explanations=3)
        gen = self._save(tmp_path / "gen", "expl-pred-seq2seq", examples)
        clf = self._save(tmp_path / "clf", clf_variant, clf_examples)
        return main(["eval", "--config", str(toy_config),
                     "--checkpoint", str(gen), "--corpus", str(valid),
                     "--expl-classifier", str(clf),
                     "--out-root", str(tmp_path / "runs")])

    def test_matching_classifier_labels(self, tmp_path, toy_config, corpus):
        examples = make_examples(9, seed=50, n_explanations=3)
        assert self._eval(tmp_path, toy_config, corpus, "expl-to-label",
                          examples) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        report = json.loads((run_dir / "reports" / "eval_report.json").read_text())
        assert report["accuracy"] is not None

    def test_manifest_hashes_the_classifier_and_annotations(
            self, tmp_path, toy_config, corpus):
        """Every input file is in the manifest with its sha256: the
        classifier checkpoint (from the flag or from [eval]) and the
        annotations CSV as well as the checkpoint and the corpus."""
        ann = tmp_path / "ann.csv"
        ann.write_text("id,predicted_label_correct,k,n\na,1,1,2\n")
        examples = make_examples(9, seed=50, n_explanations=3)
        gen = self._save(tmp_path / "gen", "expl-pred-seq2seq", examples)
        clf = self._save(tmp_path / "clf", "expl-to-label", examples)
        _, valid = corpus
        for k, how in enumerate((["--expl-classifier", str(clf),
                                  "--annotations", str(ann)],
                                 ["--set", "eval.expl_classifier", str(clf),
                                  "--set", "eval.annotations", str(ann)])):
            root = tmp_path / f"runs{k}"
            assert main(["eval", "--config", str(toy_config), *how,
                         "--checkpoint", str(gen), "--corpus", str(valid),
                         "--out-root", str(root)]) == 0
            (run_dir,) = run_dirs(root)
            inputs = json.loads((run_dir / "manifest.json").read_text())["inputs"]
            files = [valid, ann] + [f for d in (gen, clf)
                                    for f in sorted(Path(d).rglob("*"))
                                    if f.is_file()]
            assert inputs == {str(f): cli._sha256(f) for f in files}

    def test_generate_labels_by_explain_then_predict(self, tmp_path,
                                                     toy_config, corpus):
        """`generate` with [eval] expl_classifier labels each generation of
        a generator without a classifier by explain-then-predict, as
        `transfer_eval` given that classifier does, and hashes the
        classifier checkpoint into the manifest."""
        from nliexpl.evaluation import transfer_eval
        from nliexpl.models import load_model
        _, valid = corpus
        examples = make_examples(9, seed=50, n_explanations=3)
        gen = self._save(tmp_path / "gen", "expl-pred-att", examples)
        clf = self._save(tmp_path / "clf", "expl-to-label", examples)
        out = tmp_path / "dump.csv"
        assert main(["generate", "--config", str(toy_config),
                     "--set", "eval.expl_classifier", str(clf),
                     "--checkpoint", str(gen), "--corpus", str(valid),
                     "--out", str(out), "--out-root", str(tmp_path / "runs")]) == 0
        report, dumps = transfer_eval(load_model(gen), valid, split="test",
                                      expl_classifier=load_model(clf))
        rows = list(csv.DictReader(out.open(encoding="utf-8")))
        assert [(r["id"], r["predicted_label"], r["explanation"]) for r in rows] \
            == [(d["id"], str(d["predicted_label"]), d["explanation"])
                for d in dumps]
        assert {r["predicted_label"] for r in rows} <= {"0", "1", "2"}
        (run_dir,) = run_dirs(tmp_path / "runs")
        written = json.loads((run_dir / "reports" / "generate_report.json")
                             .read_text())
        assert written["accuracy"] == report.accuracy is not None
        inputs = json.loads((run_dir / "manifest.json").read_text())["inputs"]
        for f in Path(clf).rglob("*"):
            assert inputs[str(f)] == cli._sha256(f)

    def test_pair_classifier_exits_1(self, tmp_path, toy_config, corpus,
                                     capsys):
        examples = make_examples(9, seed=50, n_explanations=3)
        assert self._eval(tmp_path, toy_config, corpus, "bilstm-max",
                          examples) == 1
        assert "does not label explanations" in capsys.readouterr().err

    def test_classifier_with_another_vocabulary_exits_1(self, tmp_path,
                                                        toy_config, corpus,
                                                        capsys):
        assert self._eval(tmp_path, toy_config, corpus, "expl-to-label",
                          make_examples(9, seed=7)) == 1
        assert "different vocabularies" in capsys.readouterr().err


class TestBleuCommand:
    def test_multi_reference_score(self, tmp_path, capsys):
        (tmp_path / "cand.txt").write_text("a dog runs\nthe cat sits\n")
        (tmp_path / "ref1.txt").write_text("a dog runs\na cat sits\n")
        (tmp_path / "ref2.txt").write_text("a dog moves\nthe cat sits\n")
        code = main(["bleu", "--candidates", str(tmp_path / "cand.txt"),
                     "--references", str(tmp_path / "ref1.txt"),
                     str(tmp_path / "ref2.txt"),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("bleu 1.000000")

    def test_misaligned_references_exit_1(self, tmp_path, capsys):
        """The message names each file and its line count."""
        cand, ref1, ref2 = (tmp_path / f for f in ("c.txt", "r1.txt", "r2.txt"))
        cand.write_text("a b\n")
        ref1.write_text("a b\nc d\n")
        ref2.write_text("a b\n")
        code = main(["bleu", "--candidates", str(cand),
                     "--references", str(ref1), str(ref2),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1
        assert (f"lines per file: {cand} 1, {ref1} 2, {ref2} 1"
                in capsys.readouterr().err)

    def test_empty_candidate_file_is_named(self, tmp_path, capsys):
        cand, ref = tmp_path / "c.txt", tmp_path / "r.txt"
        cand.write_text("")
        ref.write_text("")
        code = main(["bleu", "--candidates", str(cand), "--references",
                     str(ref), "--out-root", str(tmp_path / "runs")])
        assert code == 1
        assert f"{cand}: no candidate line" in capsys.readouterr().err


def _spoil_line(path, lineno, bad=b"\xff"):
    """Put a byte that is not UTF-8 at the start of line `lineno`."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = bad + lines[lineno - 1]
    path.write_bytes(b"".join(lines))


class TestMalformedInput:
    """Bytes that are not UTF-8, or a corpus row with more cells than the
    header, exit 1 naming the file, and no report or survivors file is
    written."""

    @staticmethod
    def _corpus_run(tmp_path, command):
        outs = {"--out": tmp_path / "report.csv"}
        if command == "filter":
            outs["--survivors"] = tmp_path / "survivors.csv"
        argv = [command, "--input", str(tmp_path / "c.csv"),
                "--out-root", str(tmp_path / "runs")]
        for flag, path in outs.items():
            argv += [flag, str(path)]
        return main(argv), outs.values()

    @pytest.mark.parametrize("command", ["filter", "validate"])
    @pytest.mark.parametrize("lineno", [3, 180])
    def test_corpus_not_utf8_exits_1(self, tmp_path, capsys, command, lineno):
        """The line is exact also far past the reader's first chunk."""
        corpus = tmp_path / "c.csv"
        write_corpus_csv(corpus, make_examples(200, seed=4))
        assert corpus.stat().st_size > 8 * 1024
        _spoil_line(corpus, lineno)
        code, outs = self._corpus_run(tmp_path, command)
        assert code == 1
        assert f"error: {corpus}:{lineno}: not UTF-8 text" in capsys.readouterr().err
        assert not any(p.exists() for p in outs)

    @pytest.mark.parametrize("command", ["filter", "validate"])
    def test_row_longer_than_header_exits_1(self, tmp_path, capsys, command):
        corpus = tmp_path / "c.csv"
        write_corpus_csv(corpus, make_examples(3, seed=5))
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].rstrip("\r\n") + ",extra\r\n"
        corpus.write_text("".join(lines), encoding="utf-8")
        code, outs = self._corpus_run(tmp_path, command)
        assert code == 1
        assert (f"error: {corpus}: row 3 has 8 cells, more than the header's 7"
                in capsys.readouterr().err)
        assert not any(p.exists() for p in outs)

    @pytest.mark.parametrize("spoiled", ["cand.txt", "ref.txt"])
    def test_bleu_file_not_utf8_exits_1(self, tmp_path, capsys, spoiled):
        (tmp_path / "cand.txt").write_text("a b\nc d\n")
        (tmp_path / "ref.txt").write_text("a b\nc d\n")
        _spoil_line(tmp_path / spoiled, 2, bad=b"\xc3(")
        code = main(["bleu", "--candidates", str(tmp_path / "cand.txt"),
                     "--references", str(tmp_path / "ref.txt"),
                     "--out-root", str(tmp_path / "runs")])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: {tmp_path / spoiled}:2: not UTF-8 text" in captured.err
        assert "bleu" not in captured.out


class TestByteMutationFuzz:
    """Valid inputs of `filter`, `validate` and `bleu` with 1-4 bytes
    replaced by arbitrary ones: the command exits 0 or 1, never 2 (an
    unexpected exception), and with 1 its stderr names the mutated
    file."""

    @staticmethod
    def _seed_files(root):
        corpus = root / "c.csv"
        write_corpus_csv(corpus, make_examples(3, seed=6, n_explanations=3))
        texts = {"cand.txt": "a dog runs in the park\nthe cat sits on a mat\n",
                 "ref1.txt": "a dog runs in a park\nthe cat is on the mat\n",
                 "ref2.txt": "the dog runs\na cat sits on the mat\n"}
        for name, text in texts.items():
            (root / name).write_text(text, encoding="utf-8")
        bleu = ["bleu", "--candidates", str(root / "cand.txt"), "--references",
                str(root / "ref1.txt"), str(root / "ref2.txt")]
        return {"filter": (["filter", "--input", str(corpus)], [corpus]),
                "validate": (["validate", "--input", str(corpus)], [corpus]),
                "bleu": (bleu, [root / name for name in texts])}

    @settings(max_examples=80, deadline=None)
    @given(command=st.sampled_from(["filter", "validate", "bleu"]),
           data=st.data())
    def test_exits_0_or_1_naming_the_mutated_file(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            argv, inputs = self._seed_files(root)[command]
            target = data.draw(st.sampled_from(inputs), label="file")
            raw = bytearray(target.read_bytes())
            for _ in range(data.draw(st.integers(1, 4), label="mutations")):
                at = data.draw(st.integers(0, len(raw) - 1), label="at")
                raw[at] = data.draw(st.integers(0, 255), label="byte")
            target.write_bytes(bytes(raw))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out-root", str(root / "runs")])
            assert code in (0, 1), err.getvalue()
            if code == 1:
                assert str(target) in err.getvalue()


class TestDataRootEnvVar:
    def test_relative_paths_resolve_against_root(self, tmp_path, monkeypatch):
        root = tmp_path / "data"
        root.mkdir()
        write_corpus_csv(root / "c.csv", make_examples(4, seed=0))
        monkeypatch.setenv("NLIEXPL_DATA_ROOT", str(root))
        out = tmp_path / "report.csv"
        code = main(["filter", "--input", "c.csv", "--out", str(out),
                     "--out-root", str(tmp_path / "runs")])
        assert code == 0
        assert len(list(csv.DictReader(out.open()))) == 4


class TestReproducibility:
    def test_rerunning_same_config_reproduces_metrics(self, tmp_path,
                                                      toy_config):
        roots = [tmp_path / "a", tmp_path / "b"]
        for root in roots:
            assert main(["train", "--config", str(toy_config),
                         "--out-root", str(root)]) == 0
        runs = [json.loads((run_dirs(r)[0] / "run.json").read_text())
                for r in roots]
        assert runs[0]["epochs"] == runs[1]["epochs"]
        reports = [json.loads((run_dirs(r)[0] / "reports" /
                               "valid_report.json").read_text())
                   for r in roots]
        assert reports[0] == reports[1]
        manifests = [json.loads((run_dirs(r)[0] / "manifest.json").read_text())
                     for r in roots]
        assert manifests[0]["config"] == manifests[1]["config"]
        assert manifests[0]["inputs"] == manifests[1]["inputs"]


class TestGridCommand:
    @staticmethod
    def _config(tmp_path, corpus, variant):
        train, valid = corpus
        cfg = tmp_path / "g.ini"
        cfg.write_text(f"""
[data]
train = {train}
valid = {valid}
embedding_dim = 8
min_count = 1

[model]
variant = {variant}
encoder_hidden = 5
classifier_width = 5

[training]
epochs = 1
batch_size = 8
seed = 1
""")
        return cfg

    def test_grid_selects_and_reports(self, tmp_path, corpus):
        cfg = self._config(tmp_path, corpus, "expl-pred-seq2seq")
        out_root = tmp_path / "runs"
        code = main(["grid", "--config", str(cfg), "--decoders", "4,6",
                     "--out-root", str(out_root)])
        assert code == 0
        (run_dir,) = run_dirs(out_root)
        summary = json.loads((run_dir / "reports" / "grid.json").read_text())
        assert summary["criterion"] == "val-perplexity"
        assert len(summary["runs"]) == 2
        values = [r["best_value"] for r in summary["runs"]]
        assert summary["best"]["value"] == min(values)

    def test_alpha_sweep_needs_no_configured_alpha(self, tmp_path, corpus):
        cfg = self._config(tmp_path, corpus, "pred-expl")
        out_root = tmp_path / "runs"
        code = main(["grid", "--config", str(cfg), "--decoders", "4",
                     "--alphas", "0.3,0.7", "--out-root", str(out_root)])
        assert code == 0
        (run_dir,) = run_dirs(out_root)
        summary = json.loads((run_dir / "reports" / "grid.json").read_text())
        assert [r["config"]["alpha"] for r in summary["runs"]] == [0.3, 0.7]
        assert {r["config"]["decoder_hidden"] for r in summary["runs"]} == {4}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_run_diverging_exits_2(self, tmp_path, corpus, capsys):
        cfg = self._config(tmp_path, corpus, "expl-pred-seq2seq")
        out_root = tmp_path / "runs"
        code = main(["grid", "--config", str(cfg), "--decoders", "4,6",
                     "--set", "training.lr", "1e30",
                     "--out-root", str(out_root)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no run kept a checkpoint" in err
        assert "grid00: " in err and "grid01: " in err
        (run_dir,) = run_dirs(out_root)
        summary = json.loads((run_dir / "reports" / "grid.json").read_text())
        assert summary["best"]["checkpoint"] is None
        assert all(r["aborted"] for r in summary["runs"])


class TestRunSettings:
    def test_config_sections_name_every_train_config_field(self):
        keys = {*SCHEMA["model"], *SCHEMA["training"], "embed_dim"}
        assert keys == {f.name for f in fields(TrainConfig)}

    def test_defaults_are_train_config_defaults(self):
        config = empty_config()
        config["model"]["variant"] = "expl-pred-seq2seq"
        assert cli._train_config(config) == TrainConfig(variant="expl-pred-seq2seq")


class TestBlasThreadWarning:
    """A command that runs a model warns once on stderr when neither BLAS
    thread variable is set, and leaves the environment as it found it."""

    MISSING = {"train": [], "grid": [],
               "eval": ["--checkpoint", "none", "--corpus", "none.csv"],
               "generate": ["--checkpoint", "none", "--corpus", "none.csv"],
               "repr-export": ["--checkpoint", "none", "--sentences", "none"],
               "bleu": ["--candidates", "none", "--references", "none"],
               "filter": ["--input", "none.csv"]}

    def _stderr(self, command, tmp_path, capsys):
        code = main([command, *self.MISSING[command],
                     "--out-root", str(tmp_path / "runs")])
        assert code == 1   # every input above is missing
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", cli.MODEL_COMMANDS)
    def test_model_command_warns_once(self, command, tmp_path, monkeypatch,
                                      capsys):
        for var in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        err = self._stderr(command, tmp_path, capsys)
        assert err.count("warning: neither OPENBLAS_NUM_THREADS nor "
                         "OMP_NUM_THREADS is set") == 1
        assert "'BLAS threads' in README.md" in err
        assert not any(var in os.environ for var in cli.BLAS_THREAD_VARS)

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_either_variable_silences_it(self, var, tmp_path, monkeypatch,
                                         capsys):
        for other in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(var, "1")
        assert "BLAS" not in self._stderr("train", tmp_path, capsys)

    @pytest.mark.parametrize("command", ["bleu", "filter"])
    def test_other_commands_do_not_warn(self, command, tmp_path, monkeypatch,
                                        capsys):
        for var in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        assert "BLAS" not in self._stderr(command, tmp_path, capsys)

    def test_readme_has_the_named_paragraph(self):
        readme = Path(__file__).parents[1] / "README.md"
        assert "\n### BLAS threads\n" in readme.read_text(encoding="utf-8")
