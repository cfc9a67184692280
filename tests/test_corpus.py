import pytest
from hypothesis import given, strategies as st

from textjscc.corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    SPECIALS,
    UNK_ID,
    CharFrequencyTable,
    Vocabulary,
    batch_by_length,
    build_vocabulary,
    char_frequencies,
    detokenize,
    filter_sentences,
    tokenize,
)
from textjscc.errors import DomainError, EmptyCorpus, IoError


class TestBuildVocabulary:
    def test_most_frequent_kept(self):
        vocab = build_vocabulary(["the cat sat", "the dog sat"], max_size=6)
        assert len(vocab) == 6
        assert "the" in vocab and "sat" in vocab
        assert "cat" not in vocab and "dog" not in vocab

    def test_single_token(self):
        vocab = build_vocabulary(["a"], max_size=5)
        assert len(vocab) == 5
        assert "a" in vocab

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([], max_size=10)

    def test_max_size_too_small(self):
        with pytest.raises(DomainError):
            build_vocabulary(["a b"], max_size=4)

    def test_lexicographic_tie_break(self):
        # all words appear once; the ties resolve alphabetically
        vocab = build_vocabulary(["zebra apple mango"], max_size=6)
        assert "apple" in vocab and "mango" in vocab
        assert "zebra" not in vocab

    def test_specials_occupy_first_ids(self):
        vocab = build_vocabulary(["a b c"], max_size=7)
        assert tuple(vocab.id_to_token[:4]) == SPECIALS
        assert (PAD_ID, UNK_ID, SOS_ID, EOS_ID) == (0, 1, 2, 3)

    def test_round_trip_invariant(self):
        vocab = build_vocabulary(["the cat sat on the mat"], max_size=10)
        for idx, token in enumerate(vocab.id_to_token):
            assert vocab.token_to_id[token] == idx


class TestTokenize:
    def test_round_trip(self):
        vocab = build_vocabulary(["the cat"], max_size=6)
        sent = tokenize("the cat", vocab)
        assert detokenize(sent.ids, vocab) == "the cat"

    def test_unknown_maps_to_unk(self):
        vocab = build_vocabulary(["the cat"], max_size=6)
        sent = tokenize("the zyxxy", vocab)
        assert sent.ids == [vocab.id_of("the"), UNK_ID]

    def test_empty(self):
        vocab = build_vocabulary(["a"], max_size=5)
        assert tokenize("", vocab).ids == []

    @given(st.lists(st.sampled_from(["the", "cat", "sat", "dog", "mat"]), min_size=1, max_size=10))
    def test_round_trip_property(self, words):
        vocab = build_vocabulary(["the cat sat dog mat"], max_size=9)
        text = " ".join(words)
        assert detokenize(tokenize(text, vocab).ids, vocab) == text


class TestFilterSentences:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary(["a b c d e f g h i j"], max_size=14)

    def test_too_short_rejected(self, vocab):
        assert filter_sentences(["a b c"], vocab) == []

    def test_unk_fraction_strict(self, vocab):
        ten = "a b c d e f g xx yy zz"  # 3 of 10 unknown = 0.30
        assert filter_sentences([ten], vocab) == []

    def test_unk_fraction_below_bound_kept(self, vocab):
        ten = "a b c d e f g h i zz"  # 1 of 10 unknown = 0.10
        kept = filter_sentences([ten], vocab)
        assert len(kept) == 1
        assert kept[0].ids.count(UNK_ID) == 1

    def test_exact_boundary_rejected(self, vocab):
        # 2 of 10 = 0.20 is not strictly below 0.20
        ten = "a b c d e f g h yy zz"
        assert filter_sentences([ten], vocab) == []

    def test_retained_satisfy_predicates(self, vocab):
        lines = ["a b c d", "a b", "a " * 31, "a b c zz", "a b c d e zz"]
        for sent in filter_sentences(lines, vocab):
            m = len(sent)
            assert 4 <= m <= 30
            assert sent.ids.count(UNK_ID) / m < 0.2


class TestBatchByLength:
    def _sents(self, lengths, vocab):
        return [tokenize(" ".join(["a"] * n), vocab) for n in lengths]

    def test_grouping(self):
        vocab = build_vocabulary(["a"], max_size=5)
        plan = batch_by_length(self._sents([4, 4, 4, 5], vocab), batch_size=2)
        assert plan.batches == [[0, 1], [2], [3]]

    def test_single_sentence(self):
        vocab = build_vocabulary(["a"], max_size=5)
        plan = batch_by_length(self._sents([6], vocab), batch_size=8)
        assert plan.batches == [[0]]

    def test_batch_size_one(self):
        vocab = build_vocabulary(["a"], max_size=5)
        plan = batch_by_length(self._sents([4, 5, 4], vocab), batch_size=1)
        assert sorted(map(tuple, plan.batches)) == [(0,), (1,), (2,)]

    def test_every_index_once_and_homogeneous(self):
        vocab = build_vocabulary(["a"], max_size=5)
        sents = self._sents([4, 7, 4, 5, 7, 7, 4, 9], vocab)
        plan = batch_by_length(sents, batch_size=2)
        seen = [i for batch in plan.batches for i in batch]
        assert sorted(seen) == list(range(len(sents)))
        for batch in plan.batches:
            assert len({len(sents[i]) for i in batch}) == 1


class TestCharFrequencies:
    def test_counts(self):
        table = char_frequencies(["aab"])
        assert table.counts == {"a": 2, "b": 1}
        assert table.total == 3

    def test_lowercasing(self):
        table = char_frequencies(["AaB"])
        assert table.counts == {"a": 2, "b": 1}

    def test_empty(self):
        with pytest.raises(EmptyCorpus):
            char_frequencies([""])

    def test_total_matches_stream_length(self):
        lines = ["The cat.", "A dog!"]
        table = char_frequencies(lines)
        assert table.total == sum(len(line) for line in lines)


class TestFiles:
    def test_vocab_file_round_trip(self, tmp_path):
        vocab = build_vocabulary(["the cat sat"], max_size=7)
        path = str(tmp_path / "vocab.txt")
        vocab.save(path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[:4] == list(SPECIALS)
        again = Vocabulary.load(path)
        assert again.id_to_token == vocab.id_to_token

    def test_freq_table_round_trip(self, tmp_path):
        table = char_frequencies(["the cat sat on the mat"])
        path = str(tmp_path / "charfreq.tsv")
        table.save(path)
        with open(path) as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()]
        counts = [int(n) for _, n in rows]
        assert counts == sorted(counts, reverse=True)
        again = CharFrequencyTable.load(path)
        assert again.counts == table.counts

    def test_saved_bytes(self, tmp_path):
        build_vocabulary(["the cat sat the"], max_size=6).save(str(tmp_path / "vocab.txt"))
        assert (tmp_path / "vocab.txt").read_bytes() == b"<pad>\n<unk>\n<sos>\n<eos>\nthe\ncat\n"
        char_frequencies(["b\ta", "ab"]).save(str(tmp_path / "charfreq.tsv"))
        assert (tmp_path / "charfreq.tsv").read_bytes() == b"a\t2\nb\t2\n\t\t1\n"

    @pytest.mark.parametrize("text", ["a\t3\nb\n", "a\tx\n", "ab\t3\n", "a\t-1\n", "\t\n"])
    def test_freq_table_malformed_line(self, tmp_path, text):
        path = tmp_path / "charfreq.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IoError):
            CharFrequencyTable.load(str(path))

    def test_freq_table_tab_character(self, tmp_path):
        path = str(tmp_path / "charfreq.tsv")
        CharFrequencyTable({"\t": 2, "a": 1}).save(path)
        assert CharFrequencyTable.load(path).counts == {"\t": 2, "a": 1}

    @pytest.mark.parametrize("name", ["vocab.txt", "charfreq.tsv"])
    def test_non_utf8_is_io_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\n".join(s.encode() for s in SPECIALS) + b"\n\xff\xfe\t1\n")
        load = Vocabulary.load if name == "vocab.txt" else CharFrequencyTable.load
        with pytest.raises(IoError):
            load(str(path))

    @pytest.mark.parametrize("token", ["", "two words"])
    def test_vocab_malformed_line(self, tmp_path, token):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(list(SPECIALS) + ["the", token, "cat"]) + "\n",
                        encoding="utf-8")
        with pytest.raises(IoError):
            Vocabulary.load(str(path))
