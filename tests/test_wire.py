import numpy as np
import pytest

from textjscc.corpus import build_vocabulary
from textjscc.errors import DomainError
from textjscc.model import JsccConfig, JsccModel, load_pretrained_embeddings


@pytest.fixture
def vocab():
    return build_vocabulary(["the cat sat on the mat"], max_size=10)


def small_model(vocab, embed_dim=4):
    config = JsccConfig(vocab_size=len(vocab), embed_dim=embed_dim, encoder_stacks=1,
                        encoder_hidden=4, decoder_stacks=1, decoder_hidden=4,
                        bits=4, beam_width=1, max_decode_len=4)
    return JsccModel(config, seed=0)


class TestPretrainedEmbeddings:
    def test_loads_matching_tokens(self, tmp_path, vocab):
        model = small_model(vocab)
        path = tmp_path / "glove.txt"
        path.write_text("cat 0.1 0.2 0.3 0.4\n"
                        "unrelated 9 9 9 9\n"
                        "mat -1 -2 -3 -4\n")
        loaded = load_pretrained_embeddings(model, vocab, str(path))
        assert loaded == 2
        assert np.allclose(model.embed.value[vocab.id_of("cat")], [0.1, 0.2, 0.3, 0.4])
        assert np.allclose(model.embed.value[vocab.id_of("mat")], [-1, -2, -3, -4])

    def test_absent_tokens_keep_random_init(self, tmp_path, vocab):
        model = small_model(vocab)
        before = model.embed.value[vocab.id_of("sat")].copy()
        path = tmp_path / "glove.txt"
        path.write_text("cat 1 1 1 1\n")
        load_pretrained_embeddings(model, vocab, str(path))
        assert np.array_equal(model.embed.value[vocab.id_of("sat")], before)

    def test_dimension_mismatch_rejected(self, tmp_path, vocab):
        model = small_model(vocab)
        path = tmp_path / "glove.txt"
        path.write_text("cat 1 2\n")
        with pytest.raises(DomainError):
            load_pretrained_embeddings(model, vocab, str(path))

    def test_missing_file(self, vocab):
        from textjscc.errors import IoError

        model = small_model(vocab)
        with pytest.raises(IoError):
            load_pretrained_embeddings(model, vocab, "/nonexistent/glove.txt")

    def test_loads_exact_values_with_crlf_and_short_lines(self, tmp_path, vocab):
        model = small_model(vocab)
        path = tmp_path / "glove.txt"
        path.write_bytes(b"cat 0.1 -2.5e-3 3 1e30\r\n\nlonely\nmat 1 2 3 4\n")
        assert load_pretrained_embeddings(model, vocab, str(path)) == 2
        want = np.array([float(v) for v in "0.1 -2.5e-3 3 1e30".split()], dtype=np.float32)
        assert np.array_equal(model.embed.value[vocab.id_of("cat")], want)

    @pytest.mark.parametrize("values", ["0.1 x 0.3 0.4", "1 2 3 0x1", "nan 1 1 1",
                                        "1 inf 1 1", "1 1 -inf 1", "1 1 1 1e39"])
    def test_bad_values_name_file_and_token(self, tmp_path, vocab, values):
        model = small_model(vocab)
        before = model.embed.value.copy()
        path = tmp_path / "glove.txt"
        path.write_text(f"mat 1 2 3 4\ncat {values}\n")
        with pytest.raises(DomainError) as info:
            load_pretrained_embeddings(model, vocab, str(path))
        assert str(path) in str(info.value) and "'cat'" in str(info.value)
        assert np.array_equal(model.embed.value[vocab.id_of("cat")],
                              before[vocab.id_of("cat")])

    def test_bad_values_of_absent_tokens_are_skipped(self, tmp_path, vocab):
        model = small_model(vocab)
        path = tmp_path / "glove.txt"
        path.write_text("unrelated x nan 1\ncat 1 2 3 4\n")
        assert load_pretrained_embeddings(model, vocab, str(path)) == 1

    def test_non_utf8_is_io_error(self, tmp_path, vocab):
        from textjscc.errors import IoError

        model = small_model(vocab)
        path = tmp_path / "glove.txt"
        path.write_bytes(b"cat 1 1 1 1\nm\xe4t 1 1 1 1\n")
        with pytest.raises(IoError) as info:
            load_pretrained_embeddings(model, vocab, str(path))
        assert str(path) in str(info.value) and "line 2" in str(info.value)
