import logging

import numpy as np
import pytest

from polyscale.embedalign import (
    BilingualLexicon,
    EmbeddingFormatError,
    EmbeddingTable,
    align,
    apply_projection,
    build_multilingual,
    check_orthogonal,
    load_embeddings,
    load_lexicon,
    save_embeddings,
)


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def make_fixture(dim=12, n_words=40, seed=0, noise=0.0):
    """English table, a rotated copy of it, and the identity lexicon."""
    rng = np.random.default_rng(seed)
    eng_words = [f"word{i}" for i in range(n_words)]
    src_words = [f"wort{i}" for i in range(n_words)]
    y = rng.normal(size=(n_words, dim))
    rotation = random_orthogonal(dim, rng)
    x = y @ rotation.T
    if noise:
        x = x + rng.normal(scale=noise, size=x.shape)
    english = EmbeddingTable(eng_words, y)
    other = EmbeddingTable(src_words, x)
    lexicon = BilingualLexicon(tuple(zip(src_words, eng_words)))
    return other, english, lexicon


class TestEmbeddingIO:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        table = EmbeddingTable([f"w{i}" for i in range(100)], rng.normal(size=(100, 7)))
        path = tmp_path / "vecs.txt"
        save_embeddings(table, path)
        back = load_embeddings(path)
        assert back.words == table.words
        np.testing.assert_array_equal(back.matrix, table.matrix)

    def test_header_optional(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\nb 3.0 4.0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.words == ["a", "b"]
        assert table.dim == 2

    def test_duplicates_keep_first(self, tmp_path, caplog):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\na 9.0 9.0\nb 3.0 4.0\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(path)
        assert "duplicate" in caplog.text
        np.testing.assert_array_equal(table.vector("a"), [1.0, 2.0])

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_embeddings(tmp_path / "nope.txt")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingTable(["a"], np.array([[np.nan, 1.0]]))

    def test_lexicon_parsing(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\nhaus\thouse\nkatze\tcat\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.pairs == (("haus", "house"), ("katze", "cat"))

    def test_lexicon_bad_row(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("only_one_column\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_lexicon(path)


class TestAlign:
    def test_exact_rotation_recovered(self):
        other, english, lexicon = make_fixture()
        proj = align(other, english, lexicon)
        aligned = apply_projection(other, proj)
        residual = np.linalg.norm(aligned.matrix - english.matrix)
        assert residual <= 1e-6
        assert proj.n_pairs_used == len(lexicon)
        assert proj.n_pairs_dropped == 0

    def test_orthogonality(self):
        other, english, lexicon = make_fixture(seed=3)
        proj = align(other, english, lexicon)
        assert check_orthogonal(proj.matrix) <= 1e-6

    def test_cosine_strictly_increases(self):
        other, english, lexicon = make_fixture(seed=4, noise=0.05)
        proj = align(other, english, lexicon)
        aligned = apply_projection(other, proj)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        for src, eng in lexicon.pairs:
            before = cos(other.vector(src), english.vector(eng))
            after = cos(aligned.vector(src), english.vector(eng))
            assert after > before

    def test_deterministic_bitwise(self):
        other, english, lexicon = make_fixture(seed=5, noise=0.1)
        w1 = align(other, english, lexicon).matrix
        w2 = align(other, english, lexicon).matrix
        np.testing.assert_array_equal(w1, w2)

    def test_unknown_words_dropped_and_counted(self):
        other, english, lexicon = make_fixture(seed=6)
        pairs = lexicon.pairs + (("fehlt", "word0"), ("wort0", "missing"))
        proj = align(other, english, BilingualLexicon(pairs))
        assert proj.n_pairs_dropped == 2
        assert proj.n_pairs_used == len(lexicon)

    def test_empty_usable_lexicon_rejected(self):
        other, english, _ = make_fixture(seed=7)
        bad = BilingualLexicon((("nope", "nada"),))
        with pytest.raises(ValueError, match="usable"):
            align(other, english, bad)

    def test_dim_mismatch_rejected(self):
        other, english, lexicon = make_fixture(seed=8)
        small = EmbeddingTable(english.words, english.matrix[:, :6])
        with pytest.raises(ValueError, match="dimension"):
            align(other, small, lexicon)

    def test_normalize_and_center_flags(self):
        other, english, lexicon = make_fixture(seed=9, noise=0.2)
        plain = align(other, english, lexicon)
        tweaked = align(other, english, lexicon, normalize=True, center=True)
        check_orthogonal(tweaked.matrix)
        assert not np.array_equal(plain.matrix, tweaked.matrix)


class TestMultilingual:
    def test_union_namespacing(self):
        other, english, lexicon = make_fixture(dim=6, n_words=10)
        proj = align(other, english, lexicon)
        merged = build_multilingual({"en": english, "de": other}, {"de": proj})
        assert len(merged) == 20
        assert "en:word0" in merged and "de:wort0" in merged
        np.testing.assert_array_equal(merged.vector("en:word0"), english.vector("word0"))
        np.testing.assert_allclose(
            merged.vector("de:wort0"), english.vector("word0"), atol=1e-8
        )

    def test_missing_projection_rejected(self):
        other, english, _ = make_fixture(dim=6, n_words=10)
        with pytest.raises(ValueError, match="projection"):
            build_multilingual({"en": english, "de": other}, {})

    def test_missing_english_rejected(self):
        other, _, _ = make_fixture(dim=6, n_words=10)
        with pytest.raises(ValueError, match="English"):
            build_multilingual({"de": other}, {})
