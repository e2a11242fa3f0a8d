"""Tests for the hierarchical document scaler."""

import datetime

import numpy as np
import pytest

import polyscale.diffcore as dc
import polyscale.hiermodel as hm
import reference_ops as ops
from polyscale.corpus import Corpus, LabelScheme, Manifesto, Sentence
from polyscale.diffcore import check_gradients, constant
from polyscale.embedalign import EmbeddingTable
from polyscale.hiermodel import (
    CHECKPOINT_MAGIC,
    POLARITY_ORDER,
    DocPrediction,
    ModelConfig,
    Vocabulary,
    combine_losses,
    document_loss,
    effective_rile,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
    training_documents,
)
from reference_lstm import bilstm_encode

SCHEME = LabelScheme.default()


def make_sentence(text, gold=None, position=1):
    return Sentence(
        text=text, tokens=tuple(text.split()), position_index=position, gold_code=gold
    )


def make_doc(mid, texts, codes=None, rile=None, lang="aa", country="AA",
             party="p1", date=datetime.date(2010, 5, 1)):
    codes = codes or [None] * len(texts)
    sentences = tuple(
        make_sentence(text, gold=code, position=i + 1)
        for i, (text, code) in enumerate(zip(texts, codes))
    )
    return Manifesto(
        id=mid, party_id=party, country=country, language=lang,
        election_date=date, sentences=sentences, rile_gold=rile, ches_gold=None,
    )


def small_corpus():
    docs = (
        make_doc("m1", ["taxes must fall now", "markets need freedom"],
                 codes=["401", "401"], rile=0.6),
        make_doc("m2", ["we defend welfare services", "public housing for all"],
                 codes=["504", "504"], rile=-0.5),
        make_doc("m3", ["grenzen sichern jetzt", "steuern runter sofort"],
                 codes=["601", "401"], rile=0.4, lang="bb", country="BB", party="p2"),
        make_doc("m4", ["mehr wohlfahrt jetzt", "schulen fuer alle"],
                 codes=["504", "506"], rile=-0.6, lang="bb", country="BB", party="p3"),
    )
    return Corpus(manifestos=docs, scheme=SCHEME)


def tiny_config(**overrides):
    base = dict(embed_dim=6, word_hidden=4, sentence_hidden=4, epochs=2,
                learning_rate=0.01, seed=3)
    base.update(overrides)
    return ModelConfig(**base)


def np_softmax(z):
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def forward(params, doc):
    """The shared forward over one unlabeled document: its code and polarity
    probabilities, document vector and score, as arrays."""
    unlabeled = np.full(len(doc.sentences), -1)
    code_probs, pol_probs, _, _, doc_vectors, scores = hm._forward(
        params, [doc], unlabeled, unlabeled)
    return code_probs.value, pol_probs.value, doc_vectors.value[0], scores.value[0]


class TestVocabulary:
    def test_language_namespacing(self):
        docs = [
            make_doc("m1", ["tax now"], rile=0.1, lang="aa"),
            make_doc("m2", ["tax now"], rile=0.1, lang="bb"),
        ]
        vocab = Vocabulary.build(docs, cap=100)
        assert vocab.id_of("aa", "tax") != vocab.id_of("bb", "tax")

    def test_unknown_token_falls_back_per_language(self):
        docs = [make_doc("m1", ["tax now"], rile=0.1, lang="aa")]
        vocab = Vocabulary.build(docs, cap=100)
        assert vocab.id_of("aa", "zeppelin") == vocab.index["aa:<unk>"]

    def test_unseen_language_raises(self):
        docs = [make_doc("m1", ["tax now"], rile=0.1, lang="aa")]
        vocab = Vocabulary.build(docs, cap=100)
        with pytest.raises(ValueError, match="language 'zz'"):
            vocab.id_of("zz", "tax")

    def test_tokens_are_case_folded(self):
        docs = [make_doc("m1", ["Tax TAX tax"], rile=0.1)]
        vocab = Vocabulary.build(docs, cap=100)
        assert vocab.id_of("aa", "Tax") == vocab.id_of("aa", "tax")

    def test_cap_keeps_most_frequent(self):
        docs = [make_doc("m1", ["rare common common common other other"], rile=0.1)]
        vocab = Vocabulary.build(docs, cap=3)  # 1 unk slot + 2 tokens
        assert "aa:common" in vocab.index
        assert "aa:other" in vocab.index
        assert "aa:rare" not in vocab.index
        assert vocab.id_of("aa", "rare") == vocab.index["aa:<unk>"]

    def test_build_is_deterministic(self):
        docs = list(small_corpus().manifestos)
        assert Vocabulary.build(docs, 50).tokens == Vocabulary.build(docs, 50).tokens


class TestForward:
    def setup_method(self):
        self.corpus = small_corpus()
        self.params, _ = train(self.corpus, tiny_config(epochs=0))

    def test_output_shapes(self):
        docs = self.corpus.manifestos[:3]
        n = sum(len(doc.sentences) for doc in docs)
        unlabeled = np.full(n, -1)
        code_probs, pol_probs, sentence_loss, polarity_loss, doc_vectors, scores = (
            hm._forward(self.params, docs, unlabeled, unlabeled))
        assert code_probs.value.shape == (n, 57)
        assert pol_probs.value.shape == (n, 3)
        assert sentence_loss is None and polarity_loss is None
        assert doc_vectors.value.shape == (3, 57 + 8)
        assert scores.value.shape == (3,)
        assert np.all(np.abs(scores.value) < 1.0)

    def test_doc_vector_is_mean_of_prob_state_blocks(self):
        doc = self.corpus.manifestos[0]
        code_probs, _, doc_vector, _ = forward(self.params, doc)
        states = hm._encode_sentences(self.params, [doc]).value
        store = self.params.store
        logits = states @ store["code_head.weight"].value + store["code_head.bias"].value
        for row, probs in zip(logits, code_probs):
            assert np.allclose(np_softmax(row), probs, atol=1e-12)
        assert np.allclose(doc_vector[:57], np.mean(code_probs, axis=0), atol=1e-12)
        assert np.allclose(doc_vector[57:], np.mean(states, axis=0), atol=1e-12)

    def test_document_head_recomputation(self):
        _, _, doc_vector, rile_hat = forward(self.params, self.corpus.manifestos[1])
        w = self.params.store["doc_head.weight"].value
        b = self.params.store["doc_head.bias"].value
        expected = np.tanh(doc_vector @ w + b)
        assert float(rile_hat) == pytest.approx(float(expected), rel=1e-12)

    def test_forward_is_deterministic(self):
        doc = self.corpus.manifestos[0]
        a = forward(self.params, doc)
        b = forward(self.params, doc)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


class TestLosses:
    def test_combined_worked_value(self):
        total = combine_losses(
            constant(1.0), constant(2.0), constant(3.0), constant(4.0),
            alpha=0.3, beta=0.1, gamma=0.7,
        )
        assert float(total.value) == pytest.approx(4.8, rel=1e-12)

    def test_alpha_one_reduces_to_sentence_loss_bitwise(self):
        l_s = constant(0.123456789123456789)
        total = combine_losses(l_s, constant(9.9), constant(8.8), constant(7.7),
                               alpha=1.0, beta=0.0, gamma=0.0)
        assert float(total.value) == float(l_s.value)

    def test_absent_components_are_skipped(self):
        total = combine_losses(None, constant(2.0), None, None,
                               alpha=0.3, beta=0.1, gamma=0.7)
        assert float(total.value) == pytest.approx(0.7 * 2.0, rel=1e-12)

    def test_no_components_raises(self):
        with pytest.raises(ValueError, match="no loss components"):
            combine_losses(None, None, None, None, alpha=1.0, beta=0.0, gamma=0.0)

    def test_document_loss_components_fully_annotated(self):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config(epochs=0))
        total, parts = document_loss(params, corpus.manifestos[0])
        assert set(parts) == {"sentence", "doc", "polarity", "structure"}
        rile_hat = forward(params, corpus.manifestos[0])[3]
        assert parts["doc"] == pytest.approx((float(rile_hat) - 0.6) ** 2, rel=1e-9)

    def test_document_loss_score_only_doc(self):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config(epochs=0))
        doc = make_doc("m9", ["words without labels", "more words here"], rile=0.2)
        total, parts = document_loss(params, doc)
        assert set(parts) == {"doc", "structure"}

    def test_structure_margin_recomputation(self):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config(epochs=0))
        doc = corpus.manifestos[1]
        _, parts = document_loss(params, doc)
        pol_probs = forward(params, doc)[1]
        margins = [float(p[1] - p[0]) for p in pol_probs]
        expected = (float(np.mean(margins)) - doc.rile_gold) ** 2
        assert parts["structure"] == pytest.approx(expected, rel=1e-9)

    def test_effective_rile_prefers_explicit_then_derives(self):
        explicit = make_doc("m1", ["a b"], codes=["104"], rile=0.25)
        assert effective_rile(explicit, SCHEME) == 0.25
        derived = make_doc("m2", ["a b", "c d"], codes=["104", "104"])
        assert effective_rile(derived, SCHEME) == 1.0
        unusable = make_doc("m3", ["a b", "c d"], codes=["104", None])
        assert effective_rile(unusable, SCHEME) is None

    def test_training_documents_filters(self):
        docs = (
            make_doc("m1", ["a b"], codes=["104"], rile=0.5),
            make_doc("m2", ["a b"], codes=[None]),
        )
        corpus = Corpus(manifestos=docs, scheme=SCHEME)
        assert [d.id for d in training_documents(corpus)] == ["m1"]


class TestGradients:
    def test_full_model_gradient_check_on_small_fixture(self):
        corpus = small_corpus()
        config = tiny_config(embed_dim=4, word_hidden=3, sentence_hidden=3, epochs=0)
        params, _ = train(corpus, config)
        doc = corpus.manifestos[0]

        def loss_fn():
            total, _ = document_loss(params, doc, config)
            return total

        names = [
            "embed.matrix", "word_fwd.weight", "word_bwd.weight", "sent_fwd.bias",
            "sent_bwd.weight", "code_head.weight", "pol_head.bias",
            "doc_head.weight", "doc_head.bias",
        ]
        # c01's step: the whole weights include recurrent rows whose ~5e-9
        # gradients read ~3e-4 at a step of 1e-4 from round-off alone
        worst = check_gradients(loss_fn, params.store, epsilon=3e-3, names=names)
        assert worst <= 1e-4


# a padded word batch with a 1-token sentence and an unlabeled sentence, and
# a document whose sentence level is a single step
EDGE_DOCS = {
    "padded": make_doc("e1", ["taxes must fall now", "markets", "we defend welfare"],
                       codes=["401", "504", None], rile=0.3),
    "one_sentence": make_doc("e2", ["public housing for all"], codes=["504"], rile=-0.5),
}


def reference_forward(params, manifesto):
    """The per-step path: one tape node per LSTM step and per-sentence heads.

    Returns the document vector, score and loss, and each sentence's code
    and polarity distributions."""
    store, scheme = params.store, params.scheme
    embed = params.embedding_tensor()
    views = {p: (store[f"{p}.weight"], store[f"{p}.bias"])
             for p in ("word_fwd", "word_bwd", "sent_fwd", "sent_bwd")}
    vectors = []
    for sentence in manifesto.sentences:
        seq = [ops.row(embed, params.vocab.id_of(manifesto.language, tok))
               for tok in sentence.tokens]
        vectors.append(bilstm_encode(seq, views["word_fwd"], views["word_bwd"])[1])
    states, _ = bilstm_encode(vectors, views["sent_fwd"], views["sent_bwd"])
    code_xents, pol_xents, code_probs, pol_probs, pooled = [], [], [], [], []
    for sentence, state in zip(manifesto.sentences, states):
        logits = dc.add(dc.matmul(state, store["code_head.weight"]), store["code_head.bias"])
        pol_logits = dc.add(dc.matmul(state, store["pol_head.weight"]), store["pol_head.bias"])
        if sentence.gold_code is None:
            probs, p_probs = ops.softmax(logits), ops.softmax(pol_logits)
        else:
            probs, xent = ops.softmax_xent(logits, scheme.index(sentence.gold_code))
            gold_pol = POLARITY_ORDER.index(scheme.polarity_of(sentence.gold_code))
            p_probs, p_xent = ops.softmax_xent(pol_logits, gold_pol)
            code_xents.append(xent)
            pol_xents.append(p_xent)
        code_probs.append(probs)
        pol_probs.append(p_probs)
        pooled.append(dc.concat([probs, state]))
    doc_vector = ops.mean(pooled)
    rile_hat = dc.tanh(dc.add(dc.matmul(doc_vector, store["doc_head.weight"]),
                              store["doc_head.bias"]))
    target = constant(effective_rile(manifesto, scheme))
    margins = [dc.matmul(p, constant(np.array([-1.0, 1.0, 0.0]))) for p in pol_probs]
    total = combine_losses(
        ops.mean(code_xents) if code_xents else None,
        dc.square(dc.sub(rile_hat, target)),
        ops.mean(pol_xents) if pol_xents else None,
        dc.square(dc.sub(ops.mean(margins), target)),
        params.config.alpha, params.config.beta, params.config.gamma,
    )
    return doc_vector, rile_hat, total, code_probs, pol_probs


class TestFusedEncoder:
    """The document pass with fused LSTM nodes against the per-step path."""

    @pytest.mark.parametrize("name", sorted(EDGE_DOCS))
    def test_matches_per_step_path(self, name):
        params, _ = train(small_corpus(), tiny_config(epochs=1))
        doc = EDGE_DOCS[name]
        params.store.zero_grad()
        total, _ = document_loss(params, doc)
        dc.backward(total)
        fused = {k: t.grad.copy() for k, t in params.store}
        _, _, fused_vector, fused_rile = forward(params, doc)

        params.store.zero_grad()
        doc_vector, rile_hat, ref_total, _, _ = reference_forward(params, doc)
        dc.backward(ref_total)
        assert float(fused_rile) == pytest.approx(float(rile_hat.value), abs=1e-10)
        np.testing.assert_allclose(fused_vector, doc_vector.value, rtol=0, atol=1e-10)
        assert float(total.value) == pytest.approx(float(ref_total.value), abs=1e-10)
        for k, t in params.store:
            np.testing.assert_allclose(fused[k], t.grad, rtol=0, atol=1e-10, err_msg=k)

    @pytest.mark.parametrize("name", sorted(EDGE_DOCS))
    def test_every_parameter_matches_finite_differences(self, name):
        corpus = small_corpus()
        config = tiny_config(embed_dim=4, word_hidden=3, sentence_hidden=3, epochs=0)
        params, _ = train(corpus, config)
        doc = EDGE_DOCS[name]

        def loss_fn():
            return document_loss(params, doc, config)[0]

        # c01's step: at 1e-4, round-off swamps the ~5e-9 gradients of the
        # recurrent weights (the per-step path scores the same there)
        assert check_gradients(loss_fn, params.store, epsilon=3e-3) <= 1e-4

    def test_saved_checkpoint_predicts_like_per_step_path(self, tmp_path):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config())
        save_checkpoint(params, tmp_path / "model.pscl")
        loaded = load_checkpoint(tmp_path / "model.pscl")
        docs = corpus.manifestos + tuple(EDGE_DOCS.values())
        for pred, doc in zip(predict(loaded, docs), docs):
            rile_hat = reference_forward(params, doc)[1]
            assert pred.rile_hat == pytest.approx(float(rile_hat.value), abs=1e-10)


class TestTrain:
    def test_loss_decreases(self):
        corpus = small_corpus()
        params, logs = train(corpus, tiny_config(epochs=8))
        assert logs[-1].mean_loss < logs[0].mean_loss

    def test_training_is_deterministic(self):
        corpus = small_corpus()
        params_a, logs_a = train(corpus, tiny_config())
        params_b, logs_b = train(corpus, tiny_config())
        assert logs_a == logs_b
        for name in params_a.store.names:
            assert np.array_equal(
                params_a.store[name].value, params_b.store[name].value
            )

    def test_unlabeled_documents_do_not_change_training(self):
        base = small_corpus()
        extra = base.manifestos + (
            make_doc("x1", ["noise tokens everywhere", "unrelated words"]),
        )
        bigger = Corpus(manifestos=extra, scheme=SCHEME)
        params_a, _ = train(base, tiny_config())
        params_b, _ = train(bigger, tiny_config())
        for name in params_a.store.names:
            assert np.array_equal(
                params_a.store[name].value, params_b.store[name].value
            )

    def test_no_trainable_documents_raises(self):
        corpus = Corpus(
            manifestos=(make_doc("m1", ["a b"], codes=[None]),), scheme=SCHEME
        )
        with pytest.raises(ValueError, match="no trainable documents"):
            train(corpus, tiny_config())

    def test_epoch_logs_have_components(self):
        _, logs = train(small_corpus(), tiny_config(epochs=1))
        assert len(logs) == 1
        assert {"sentence", "doc", "polarity", "structure"} <= set(logs[0].components)

    def test_non_finite_loss_names_epoch_and_document(self, monkeypatch):
        corpus = small_corpus()
        words = list(Vocabulary.build(training_documents(corpus), 20_000).tokens)
        table = EmbeddingTable(tuple(words), np.zeros((len(words), 6)))
        table.matrix[table.index["bb:grenzen"]] = np.nan  # only m3 reads this row
        backward = dc.backward

        def finite_backward(root):
            assert np.isfinite(root.value), "backward ran on a non-finite loss"
            backward(root)

        monkeypatch.setattr(dc, "backward", finite_backward)
        with pytest.raises(ValueError, match=r"epoch 0: the loss of document 'm3' is nan"):
            train(corpus, tiny_config(), embeddings=table)


class TestPredict:
    def test_prediction_fields(self):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config())
        preds = predict(params, corpus)
        assert [p.manifesto_id for p in preds] == ["m1", "m2", "m3", "m4"]
        for pred, doc in zip(preds, corpus.manifestos):
            assert isinstance(pred, DocPrediction)
            assert len(pred.codes) == len(doc.sentences)
            assert all(code in SCHEME.codes for code in pred.codes)
            assert all(pol in POLARITY_ORDER for pol in pred.polarities)
            assert -1.0 <= pred.rile_hat <= 1.0
            assert pred.doc_vector.shape == (57 + 8,)

    def test_predict_unseen_language_raises(self):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config())
        alien = make_doc("z1", ["palabras nuevas aqui"], lang="zz", country="AA")
        with pytest.raises(ValueError, match="language 'zz'"):
            predict(params, [alien])


class TestBatchedPredict:
    """``predict`` runs documents in batches; the per-step ``reference_forward``
    is the reference."""

    def setup_method(self):
        self.params, _ = train(small_corpus(), tiny_config())
        self.docs = small_corpus().manifestos + tuple(EDGE_DOCS.values())
        # trained this briefly, every sentence gets the same code and polarity;
        # weights out of the near-linear init regime make them differ, so that
        # rows read in the wrong order show
        rng = np.random.default_rng(9)  # 4 codes and all 3 polarities over 12 sentences
        for _, t in self.params.store:
            t.value[...] = rng.uniform(-1.0, 1.0, size=t.value.shape)

    def assert_matches_per_document_pass(self, docs):
        preds = predict(self.params, docs)
        assert [p.manifesto_id for p in preds] == [d.id for d in docs]
        for pred, doc in zip(preds, docs):
            doc_vector, rile_hat, _, code_probs, pol_probs = reference_forward(self.params, doc)
            assert pred.rile_hat == pytest.approx(float(rile_hat.value), abs=1e-10)
            np.testing.assert_allclose(pred.doc_vector, doc_vector.value, rtol=0, atol=1e-10)
            assert pred.codes == tuple(SCHEME.codes[np.argmax(p.value)] for p in code_probs)
            assert pred.polarities == tuple(
                POLARITY_ORDER[np.argmax(p.value)] for p in pol_probs)
            assert pred.doc_vector.base is None

    def test_one_batch_matches_per_document_pass(self):
        assert len(hm._predict_batches(self.docs, self.params.config.word_hidden)) == 1
        self.assert_matches_per_document_pass(self.docs)

    def test_several_batches_match_per_document_pass(self, monkeypatch):
        # at word_hidden 4, m1-m3 fill 6 sentences x 4 tokens x 16 = 384
        # values, and m4 would raise that to 8 x 4 x 16 = 512
        monkeypatch.setattr(hm, "_BATCH_VALUES", 400)
        batches = hm._predict_batches(self.docs, self.params.config.word_hidden)
        assert [[d.id for d in b] for b in batches] == [["m1", "m2", "m3"], ["m4", "e1", "e2"]]
        self.assert_matches_per_document_pass(self.docs)

    def test_batch_composition_does_not_change_the_bits(self):
        m1, m2, m3, m4 = small_corpus().manifestos
        doc = EDGE_DOCS["padded"]
        first = predict(self.params, [m1, doc])[1]
        second = predict(self.params, [m4, m3, doc, EDGE_DOCS["one_sentence"], m2])[2]
        assert first.rile_hat == second.rile_hat
        assert first.doc_vector.tobytes() == second.doc_vector.tobytes()
        assert (first.codes, first.polarities) == (second.codes, second.polarities)

    def test_no_documents(self):
        assert predict(self.params, []) == []

    def test_batches_respect_the_budget(self):
        hidden = 32
        docs = list(self.docs) * 40

        def gate_values(batch):
            rows = sum(len(d.sentences) for d in batch)
            longest = max(len(s.tokens) for d in batch for s in d.sentences)
            return rows * longest * 4 * hidden

        batches = hm._predict_batches(docs, hidden)
        assert [d for batch in batches for d in batch] == docs
        assert len(batches) > 1
        assert all(gate_values(b) <= hm._BATCH_VALUES for b in batches)
        # each batch closed because the next document would have broken the budget
        assert all(gate_values(b + after[:1]) > hm._BATCH_VALUES
                   for b, after in zip(batches, batches[1:]))

    def test_over_budget_document_runs_alone(self):
        hidden = 4
        width = hm._BATCH_VALUES // (4 * hidden) + 1
        big = make_doc("big", [" ".join(["w"] * width)])
        small_a, small_b = EDGE_DOCS["padded"], EDGE_DOCS["one_sentence"]
        batches = hm._predict_batches([small_a, big, small_b], hidden)
        assert batches == [[small_a], [big], [small_b]]


class TestCheckpoint:
    def test_round_trip_preserves_predictions_bitwise(self, tmp_path):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config())
        path = tmp_path / "model.pscl"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert loaded.vocab.tokens == params.vocab.tokens
        assert loaded.scheme == params.scheme
        for name in params.store.names:
            assert np.array_equal(loaded.store[name].value, params.store[name].value)
        before = predict(params, corpus)
        after = predict(loaded, corpus)
        for a, b in zip(before, after):
            assert a.rile_hat == b.rile_hat
            assert a.codes == b.codes
            assert np.array_equal(a.doc_vector, b.doc_vector)

    def test_magic_is_checked(self, tmp_path):
        path = tmp_path / "bogus.pscl"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_pscl1_checkpoint_rejected(self, tmp_path):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config())
        path = tmp_path / "model.pscl"
        save_checkpoint(params, path)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC) and CHECKPOINT_MAGIC == b"PSCL2\n"
        path.write_bytes(b"PSCL1\n" + path.read_bytes()[len(CHECKPOINT_MAGIC):])
        with pytest.raises(ValueError, match="PSCL1 checkpoint.*retrain"):
            load_checkpoint(path)

    def test_two_tensors_per_lstm_direction(self):
        config = ModelConfig(epochs=0)
        params, _ = train(small_corpus(), config)
        store = params.store
        assert len(store) == 15
        for prefix, d_in, n in (("word_fwd", config.embed_dim, config.word_hidden),
                                ("sent_bwd", 2 * config.word_hidden, config.sentence_hidden)):
            assert store[f"{prefix}.weight"].shape == (d_in + n, 4 * n)
            assert store[f"{prefix}.bias"].shape == (4 * n,)

    def test_truncated_file_rejected(self, tmp_path):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config())
        path = tmp_path / "model.pscl"
        save_checkpoint(params, path)
        clipped = path.read_bytes()[:-16]
        path.write_bytes(clipped)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config())
        path = tmp_path / "model.pscl"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    def test_frozen_embeddings_round_trip(self, tmp_path):
        corpus = small_corpus()
        docs = training_documents(corpus)
        vocab_probe = Vocabulary.build(docs, 20_000)
        words = list(vocab_probe.tokens)
        rng = np.random.default_rng(5)
        table = EmbeddingTable(tuple(words), rng.normal(size=(len(words), 6)))
        config = tiny_config(trainable_embeddings=False)
        params, _ = train(corpus, config, embeddings=table)
        assert "embed.matrix" not in params.store
        assert params.frozen_embed is not None
        path = tmp_path / "model.pscl"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.frozen_embed, params.frozen_embed)
        before = predict(params, corpus)
        after = predict(loaded, corpus)
        assert all(a.rile_hat == b.rile_hat for a, b in zip(before, after))

    def test_frozen_without_table_raises(self):
        with pytest.raises(ValueError, match="pretrained"):
            train(small_corpus(), tiny_config(trainable_embeddings=False))
