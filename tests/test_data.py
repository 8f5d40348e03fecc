"""Tests for tokenization, vocabulary, embeddings, encoding, batching."""

import numpy as np
import pytest

from nliexpl import data as D
from nliexpl.evaluation import EvaluationError, load_annotations
from synth import make_examples, write_corpus_csv


class TestTokenize:
    def test_basic_sentence(self):
        assert D.tokenize("A dog runs.") == ["a", "dog", "runs", "."]

    def test_contraction_nt(self):
        assert D.tokenize("doesn't") == ["does", "n't"]
        assert D.tokenize("DOESN'T") == ["does", "n't"]

    def test_empty(self):
        assert D.tokenize("") == []

    def test_whitespace_collapse(self):
        assert D.tokenize("a   dog\t runs") == ["a", "dog", "runs"]

    def test_clitics_and_punctuation(self):
        assert D.tokenize("The dog's bone, obviously!") == [
            "the", "dog", "'s", "bone", ",", "obviously", "!"]

    def test_hyphen_splits(self):
        assert D.tokenize("empty-handed") == ["empty", "-", "handed"]

    def test_deterministic(self):
        s = "Isn't the dog's day-out fun? (Yes.)"
        assert D.tokenize(s) == D.tokenize(s)


class TestVocabulary:
    def test_reserved_order_fixed(self):
        v = D.Vocabulary(["cat"])
        assert v.id_to_token[:7] == ["<pad>", "<unk>", "<bos>", "<eos>",
                                     "entailment", "neutral", "contradiction"]
        assert v.token_to_id["cat"] == 7

    def test_min_count_boundary(self):
        corpus = [["often"] * 15 + ["rare"] * 14]
        v = D.build_vocab(corpus, min_count=15)
        assert "often" in v.token_to_id
        assert "rare" not in v.token_to_id
        assert v.encode(["rare"]) == [v.unk_id]
        assert v.encode(["often"]) != [v.unk_id]

    def test_three_token_corpus_size(self):
        corpus = [["a", "b", "c"] * 20]
        v = D.build_vocab(corpus, min_count=15)
        assert len(v) == 3 + v.reserved_size

    def test_empty_corpus_is_error(self):
        with pytest.raises(ValueError):
            D.build_vocab([], min_count=15)

    def test_build_twice_identical(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        corpus = [[words[rng.integers(30)] for _ in range(50)] for _ in range(40)]
        v1 = D.build_vocab(corpus, min_count=5)
        v2 = D.build_vocab(corpus, min_count=5)
        assert v1.id_to_token == v2.id_to_token
        assert v1.sha256() == v2.sha256()

    def test_ordering_count_then_lexicographic(self):
        corpus = [["b"] * 20 + ["a"] * 20 + ["z"] * 30]
        v = D.build_vocab(corpus, min_count=15)
        body = v.id_to_token[v.reserved_size:]
        assert body == ["z", "a", "b"]

    def test_label_words_map_to_reserved_ids(self):
        v = D.build_vocab([["entailment"] * 99 + ["dog"] * 99], min_count=15)
        assert v.token_to_id["entailment"] == 4
        assert v.label_vocab_id(2) == 6

    def test_no_encoded_id_out_of_range(self):
        v = D.build_vocab([["dog"] * 20], min_count=15)
        ids = v.encode(["dog", "never-seen", "<bos>"])
        assert all(0 <= i < len(v) for i in ids)


class TestEmbeddings:
    def _write(self, path, rows, dim=4):
        with open(path, "w", encoding="utf-8") as fh:
            for token, vec in rows:
                fh.write(token + " " + " ".join(str(x) for x in vec) + "\n")

    def test_in_file_token_copied_verbatim(self, tmp_path):
        v = D.build_vocab([["dog"] * 20, ["cat"] * 20], min_count=15)
        p = tmp_path / "vecs.txt"
        self._write(p, [("dog", [1.5, -2.0, 0.25, 3.0])])
        table = D.load_embeddings(p, v, dim=4)
        np.testing.assert_array_equal(table.matrix[v.token_to_id["dog"]],
                                      np.array([1.5, -2.0, 0.25, 3.0], np.float32))

    def test_out_of_file_token_is_zero(self, tmp_path):
        v = D.build_vocab([["dog"] * 20, ["cat"] * 20], min_count=15)
        p = tmp_path / "vecs.txt"
        self._write(p, [("dog", [1.0, 1.0, 1.0, 1.0])])
        table = D.load_embeddings(p, v, dim=4)
        np.testing.assert_array_equal(table.matrix[v.token_to_id["cat"]], 0.0)
        np.testing.assert_array_equal(table.matrix[v.pad_id], 0.0)
        np.testing.assert_array_equal(table.matrix[v.bos_id], 0.0)

    def test_wrong_arity_reports_line_number(self, tmp_path):
        v = D.build_vocab([["dog"] * 20], min_count=15)
        p = tmp_path / "vecs.txt"
        p.write_text("dog 1.0 2.0 3.0 4.0\ncat 1.0 2.0 3.0\n")
        with pytest.raises(D.CorpusFormatError, match=":2"):
            D.load_embeddings(p, v, dim=4)

    def test_repeated_token_names_both_lines(self, tmp_path):
        v = D.build_vocab([["dog"] * 20, ["cat"] * 20], min_count=15)
        p = tmp_path / "vecs.txt"
        p.write_text("cat 1 2 3 4\ndog 0 0 0 0\ncat 3 4 5 6\n")
        with pytest.raises(D.CorpusFormatError,
                           match=r"vecs\.txt:3: token 'cat' repeated "
                                 r"\(first on line 1\)"):
            D.load_embeddings(p, v, dim=4)

    def test_repeated_out_of_vocab_token_is_skipped(self, tmp_path):
        v = D.build_vocab([["dog"] * 20], min_count=15)
        p = tmp_path / "vecs.txt"
        p.write_text("owl 1 2 3 4\ndog 1 1 1 1\nowl 3 4 5 6\n")
        table = D.load_embeddings(p, v, dim=4)
        np.testing.assert_array_equal(table.matrix[v.token_to_id["dog"]], 1.0)

    def test_unparsable_float_reports_line_number(self, tmp_path):
        v = D.build_vocab([["dog"] * 20], min_count=15)
        p = tmp_path / "vecs.txt"
        p.write_text("dog 1.0 x 3.0 4.0\n")
        with pytest.raises(D.CorpusFormatError, match=":1"):
            D.load_embeddings(p, v, dim=4)

    def test_bytes_not_utf8_report_line_number(self, tmp_path):
        v = D.build_vocab([["dog"] * 20], min_count=15)
        p = tmp_path / "vecs.txt"
        p.write_bytes(b"dog 1 2 3 4\ncaf\xe9 1 2 3 4\n")
        with pytest.raises(D.CorpusFormatError,
                           match=r"vecs\.txt:2: not UTF-8 text"):
            D.load_embeddings(p, v, dim=4)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_value_reports_line_number(self, tmp_path, value):
        v = D.build_vocab([["dog"] * 20, ["cat"] * 20], min_count=15)
        p = tmp_path / "vecs.txt"
        p.write_text(f"dog 1.0 2.0 3.0 4.0\ncat 1.0 {value} 3.0 4.0\n")
        with pytest.raises(D.CorpusFormatError,
                           match=r"vecs\.txt:2: non-finite value for 'cat'"):
            D.load_embeddings(p, v, dim=4)

    def test_random_table_for_synthetic_runs(self):
        v = D.build_vocab([["dog"] * 20], min_count=15)
        t = D.EmbeddingTable.random(v, dim=8, rng=np.random.default_rng(0))
        assert t.matrix.shape == (len(v), 8)
        np.testing.assert_array_equal(t.matrix[v.pad_id], 0.0)


def _vocab_for(examples):
    return D.build_vocab([e.explanations[0] for e in examples]
                         + [e.premise for e in examples]
                         + [e.hypothesis for e in examples], min_count=1)


class TestEncodeCorpus:
    def test_premise_truncated_to_limit(self):
        e = D.Example(id="x", premise=["w"] * 90, hypothesis=["h"],
                      label="neutral", explanations=[["ok", "fine", "sure"]])
        v = D.build_vocab([["w"] * 20, ["h"] * 20], min_count=1)
        [enc] = D.encode_corpus([e], v)
        assert len(enc.premise) == 84

    def test_explanation_wrapped_with_bos_eos(self):
        e = D.Example(id="x", premise=["a"], hypothesis=["b"], label="neutral",
                      explanations=[["one", "two", "three", "four", "five"]])
        v = _vocab_for([e])
        [enc] = D.encode_corpus([e], v)
        expl = enc.explanations[0]
        assert len(expl) == 7
        assert expl[0] == v.bos_id and expl[-1] == v.eos_id

    def test_explanation_at_exact_limit_keeps_everything(self):
        e = D.Example(id="x", premise=["a"], hypothesis=["b"], label="neutral",
                      explanations=[[f"t{i}" for i in range(40)]])
        v = _vocab_for([e])
        [enc] = D.encode_corpus([e], v)
        assert len(enc.explanations[0]) == 42

    def test_empty_premise_skipped_with_warning(self, caplog):
        e = D.Example(id="x", premise=[], hypothesis=["b"], label="neutral",
                      explanations=[])
        v = D.build_vocab([["b"] * 20], min_count=1)
        with caplog.at_level("WARNING"):
            assert D.encode_corpus([e], v) == []
        assert "skipping" in caplog.text

    def test_round_trip_preserves_in_vocab_tokens(self):
        examples = make_examples(20, seed=3)
        v = _vocab_for(examples)
        for e in examples:
            [enc] = D.encode_corpus([e], v)
            assert v.decode(enc.premise) == e.premise
            assert v.decode(enc.explanations[0]) == e.explanations[0]

    def test_unknown_tokens_become_unk(self):
        e = D.Example(id="x", premise=["qqq", "dog"], hypothesis=["dog"],
                      label="neutral", explanations=[])
        v = D.build_vocab([["dog"] * 20], min_count=15)
        [enc] = D.encode_corpus([e], v)
        assert enc.premise[0] == v.unk_id


class TestBatching:
    def _encoded(self, n, seed=0):
        examples = make_examples(n, seed=seed)
        v = _vocab_for(examples)
        return D.encode_corpus(examples, v), v

    @staticmethod
    def _ids(enc, *args, **kw):
        """Each batch's example ids, the batches without explanations."""
        return [b.ids for b in D.iterate_batches(enc, *args, **kw,
                                                 with_explanations=False)]

    def test_batch_sizes_130(self):
        enc, _ = self._encoded(130)
        assert [len(ids) for ids in self._ids(enc, batch_size=64)] == [64, 64, 2]

    def test_explanations_only_when_asked(self):
        enc, _ = self._encoded(10)
        for flag in (True, False):
            for b in D.iterate_batches(enc, 4, with_explanations=flag):
                assert (b.explanation is not None) == flag
                assert (b.explanation_len is not None) == flag
        with pytest.raises(TypeError, match="with_explanations"):
            D.iterate_batches(enc, 4)

    def test_same_seed_identical_order(self):
        enc, _ = self._encoded(100)
        a = self._ids(enc, 16, seed=9, epoch=0, shuffle=True)
        b = self._ids(enc, 16, seed=9, epoch=0, shuffle=True)
        assert a == b

    def test_adjacent_seeds_differ(self):
        enc, _ = self._encoded(1000)
        a = sum(self._ids(enc, 64, seed=5, shuffle=True), [])
        b = sum(self._ids(enc, 64, seed=6, shuffle=True), [])
        assert a != b
        assert sorted(a) == sorted(b)

    def test_epoch_mixes_into_seed(self):
        enc, _ = self._encoded(200)
        e0 = sum(self._ids(enc, 64, seed=5, epoch=0, shuffle=True), [])
        e1 = sum(self._ids(enc, 64, seed=5, epoch=1, shuffle=True), [])
        assert e0 != e1

    def test_eval_order_stable_unshuffled(self):
        enc, _ = self._encoded(50)
        assert sum(self._ids(enc, 16), []) == [e.id for e in enc]

    def test_pad_mask_complementary_to_lengths(self):
        enc, v = self._encoded(30)
        for batch in D.iterate_batches(enc, 8, with_explanations=False):
            width = batch.premise.shape[1]
            real = np.arange(width)[None, :] < batch.premise_len[:, None]
            for i, ln in enumerate(batch.premise_len):
                assert real[i, :ln].all()
                assert not real[i, ln:].any()
            # pads are pad_id exactly where the mask is clear
            assert (batch.premise[~real] == v.pad_id).all()
            assert (batch.premise[real] != v.pad_id).all()

    def test_lengths_bounded_by_width(self):
        enc, _ = self._encoded(40)
        for batch in D.iterate_batches(enc, 7, with_explanations=True):
            assert (batch.premise_len <= batch.premise.shape[1]).all()
            assert (batch.explanation_len <= batch.explanation.shape[1]).all()


class TestCsvRows:
    """Both CSV inputs go through `csv_rows`: the same fault gets the same
    message, naming the file and the line, from the corpus and from the
    annotation reader."""

    # reader, its error, header, a data row for an id, its last required column
    READERS = {
        "corpus": (lambda path: D.load_corpus(path, split="train"), D.CorpusFormatError,
                   "pairID,gold_label,Sentence1,Sentence2",
                   "{},entailment,a dog,an animal", "Sentence2"),
        "annotations": (load_annotations, EvaluationError,
                        "id,predicted_label_correct,k,n", "{},1,1,1", "n"),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("fault", ["missing column", "long row", "short row",
                                       "repeated id", "not UTF-8"])
    def test_a_fault_reads_alike_in_both_readers(self, tmp_path, reader, fault):
        load, error, header, row, last = self.READERS[reader]
        rows = [row.format(i) for i in ("a", "b", "c")]
        path = tmp_path / "in.csv"
        width = header.count(",") + 1
        if fault == "missing column":
            header = header[:-len(last) - 1]
            expected = f"{path}:1: missing columns [{last!r}]"
        elif fault == "long row":
            rows[1] += ",extra"
            expected = f"{path}:3: {width + 1} cells, more than the header's {width}"
        elif fault == "short row":
            rows[1] = rows[1].rsplit(",", 2)[0]
            expected = f"{path}:3: {width - 2} cells, fewer than the header's {width}"
        elif fault == "repeated id":
            rows[2] = row.format("a")
            expected = f"{path}: example id 'a' repeated on rows 2 and 4"
        else:
            rows[1] = "\udcff" + rows[1]
            expected = f"{path}:3: not UTF-8 text (invalid start byte)"
        path.write_bytes("\n".join([header, *rows, ""]).encode(
            "utf-8", "surrogateescape"))
        with pytest.raises(error) as info:
            load(path)
        assert str(info.value) == expected

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_a_row_is_named_by_the_line_it_ends_on(self, tmp_path, reader):
        """After a blank line (which the reader skips) and a quoted id
        that holds a newline, an error names the line of the file that
        the row ends on, not the row's count."""
        load, error, header, row, _ = self.READERS[reader]
        path = tmp_path / "in.csv"
        lines = [header, row.format("a"), "", row.format('"b\nc"')]   # lines 1-5
        for last, expected in (
                (row.format("a"), f"{path}: example id 'a' repeated on rows 2 and 6"),
                (row.format("d") + ",extra",
                 f"{path}:6: {header.count(',') + 2} cells, more than the "
                 f"header's {header.count(',') + 1}")):
            path.write_text("\n".join([*lines, last, ""]), encoding="utf-8")
            with pytest.raises(error) as info:
                load(path)
            assert str(info.value) == expected

    def test_an_id_less_corpus_row_is_named_by_its_line(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text('pairID,gold_label,Sentence1,Sentence2\n'
                        ',neutral,"a dog\nruns",an animal\n\n'
                        ',entailment,a dog,an animal\n', encoding="utf-8")
        examples, _ = D.load_corpus(path, split="train")
        assert [e.id for e in examples] == ["row3", "row5"]


class TestLoadCorpus:
    def test_load_written_corpus(self, tmp_path):
        examples = make_examples(12, seed=1)
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, examples)
        loaded, skipped = D.load_corpus(path, split="train")
        assert skipped == 0
        assert len(loaded) == 12
        assert loaded[0].premise == examples[0].premise
        assert loaded[0].label == examples[0].label
        assert loaded[0].explanations[0] == examples[0].explanations[0]

    def test_unmappable_labels_skipped_and_counted(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "gold_label,Sentence1,Sentence2,Explanation_1\n"
            "entailment,a dog,an animal,a dog is an animal\n"
            "maybe,a dog,a cat,who knows\n"
            "-,a dog,a cat,unlabeled\n")
        loaded, skipped = D.load_corpus(path, split="train")
        assert len(loaded) == 1
        assert skipped == 2

    def test_repeated_example_id_is_error(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "pairID,gold_label,Sentence1,Sentence2\n"
            "a1,entailment,a dog,an animal\n"
            "b2,neutral,a dog,a cat\n"
            "a1,-,a dog,a pet\n")
        with pytest.raises(D.CorpusFormatError,
                           match=r"'a1' repeated on rows 2 and 4"):
            D.load_corpus(path, split="train")

    def test_missing_required_column_is_error(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("gold_label,Sentence1\nentailment,a dog\n")
        with pytest.raises(D.CorpusFormatError, match="Sentence2"):
            D.load_corpus(path, split="train")

    def test_highlight_parsing(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "gold_label,Sentence1,Sentence2,Explanation_1,"
            "Sentence1_Highlighted_1,Sentence2_Highlighted_1\n"
            'entailment,a dog runs,an animal runs,a dog is an animal,"1,2",{}\n')
        loaded, _ = D.load_corpus(path, split="train")
        assert loaded[0].premise_highlights[0] == {1, 2}
        assert loaded[0].hypothesis_highlights[0] is None

    def test_bad_highlight_cell_is_error(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "gold_label,Sentence1,Sentence2,Explanation_1,Sentence1_Highlighted_1\n"
            "entailment,a dog,an animal,a dog is an animal,abc\n")
        with pytest.raises(D.CorpusFormatError):
            D.load_corpus(path, split="train")

    def test_column_mapping_adapts_other_corpora(self, tmp_path):
        path = tmp_path / "sick.csv"
        path.write_text("entailment_label,sentence_A,sentence_B\n"
                        "CONTRADICTION,a man sits,nobody sits\n")
        cm = D.ColumnMap(gold_label="entailment_label", premise="sentence_A",
                         hypothesis="sentence_B", explanations=(),
                         premise_highlights=(), hypothesis_highlights=())
        loaded, skipped = D.load_corpus(path, split="train", colmap=cm)
        assert skipped == 0
        assert loaded[0].label == "contradiction"
        assert loaded[0].explanations == []

    def test_fewer_than_three_explanations_warns_on_valid(self, tmp_path, caplog):
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, make_examples(3, seed=2))
        with caplog.at_level("WARNING"):
            D.load_corpus(path, split="valid")
        assert "fewer than 3" in caplog.text
