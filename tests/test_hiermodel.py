"""Tests for the hierarchical document scaler."""

import dataclasses
import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    document_loss,
    effective_rile,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
    training_documents,
)
from reference_lstm import bilstm_encode
import reference_model as rm
from reference_model import combine_losses

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


def encode(params, docs):
    """Sentence states of a batch of documents, as an array."""
    ids, words, sentences = hm._encoder_inputs(params.vocab, docs)
    return hm._sentence_states(params, hm._word_vectors(params, ids, words), sentences).value


def forward(params, doc):
    """The head values ``predict`` reads for one document: its code and
    polarity probabilities, document vector and score."""
    code, pol, doc_vectors, scores = hm._heads(params.store, encode(params, [doc]),
                                               [len(doc.sentences)])
    return code.probs, pol.probs, doc_vectors[0], scores[0]


class TestModelConfig:
    @pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan")])
    def test_learning_rate_must_be_positive(self, rate):
        with pytest.raises(ValueError, match=f"learning_rate must be positive, got {rate}"):
            ModelConfig(learning_rate=rate)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError, match="beta and gamma must be nonnegative, got nan"):
            ModelConfig(beta=float("nan"))

    def test_nan_gamma_rejected(self):
        with pytest.raises(ValueError, match="got 0.1 and nan"):
            ModelConfig(gamma=float("nan"))


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

    def test_token_ids_equal_id_of_per_token(self):
        vocab = Vocabulary.build(list(small_corpus().manifestos), cap=100)
        docs = [
            make_doc("n1", ["Taxes MUST fall zeppelin", "taxes", "Zeppelin markets now"]),
            make_doc("n2", ["STEUERN runter", "taxes must fall", "unbekannt jetzt JETZT"],
                     lang="bb"),
        ]
        ids, lengths = hm._token_ids(vocab, docs)
        expected = np.array([vocab.id_of(doc.language, tok) for doc in docs
                             for sentence in doc.sentences for tok in sentence.tokens],
                            dtype=np.intp)
        assert lengths == [4, 1, 3, 2, 3, 3]
        assert ids.dtype == expected.dtype
        assert ids.tobytes() == expected.tobytes()  # flat: no padding between sentences
        assert ids[3] == vocab.index["aa:<unk>"] and ids[10] == vocab.index["bb:<unk>"]
        assert ids[0] == ids[4] == vocab.index["aa:taxes"]


class TestForward:
    def setup_method(self):
        self.corpus = small_corpus()
        self.params, _ = train(self.corpus, tiny_config(epochs=0))

    def test_output_shapes(self):
        docs = self.corpus.manifestos[:3]
        n = sum(len(doc.sentences) for doc in docs)
        code, pol, doc_vectors, scores = hm._heads(
            self.params.store, encode(self.params, docs), [len(d.sentences) for d in docs])
        assert code.probs.shape == (n, 57)
        assert pol.probs.shape == (n, 3)
        assert doc_vectors.shape == (3, 57 + 8)
        assert scores.shape == (3,)
        assert np.all(np.abs(scores) < 1.0)

    def test_doc_vector_is_mean_of_prob_state_blocks(self):
        doc = self.corpus.manifestos[0]
        code_probs, _, doc_vector, _ = forward(self.params, doc)
        states = encode(self.params, [doc])
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

    def test_each_lstm_level_is_one_node_over_both_directions(self):
        """A per-direction or per-step LSTM node in the training tape fails."""
        total, _ = document_loss(self.params, self.corpus.manifestos[0])
        nodes, stack, seen = [], [total], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node.parents)
        store = self.params.store
        for level in ("word", "sent"):
            lstm = [store[f"{level}_{d}.{k}"] for d in ("fwd", "bwd") for k in ("weight", "bias")]
            users = [node for node in nodes if any(p in node.parents for p in lstm)]
            assert len(users) == 1, level
            assert all(p in users[0].parents for p in lstm), level

    def test_a_batch_of_documents_encodes_to_the_sentence_lstm_node(self):
        """Documents of different lengths get the sentence level's node itself,
        with no gather or reshape above it."""
        docs = self.corpus.manifestos[:3] + (make_doc("n1", ["taxes must fall"]),)
        counts = [len(doc.sentences) for doc in docs]
        assert len(set(counts)) > 1
        ids, words, sentences = hm._encoder_inputs(self.params.vocab, docs)
        vectors = hm._word_vectors(self.params, ids, words)
        states = hm._sentence_states(self.params, vectors, sentences)
        store = self.params.store
        assert states.parents[0] is vectors
        assert states.parents[1:] == tuple(
            store[f"sent_{d}.{k}"] for d in ("fwd", "bwd") for k in ("weight", "bias"))
        assert states.value.shape == (sum(counts), 8)


HEADS = [f"{head}.{k}" for head in ("code_head", "pol_head", "doc_head") for k in ("weight", "bias")]


def head_store(rng, rows, state_dim=6):
    """Random sentence states (``states``) and head parameters, in a store."""
    n_codes = len(SCHEME.codes)
    store = dc.ParameterStore()
    for name, shape in (("states", (rows, state_dim)),
                        ("code_head.weight", (state_dim, n_codes)), ("code_head.bias", (n_codes,)),
                        ("pol_head.weight", (state_dim, 3)), ("pol_head.bias", (3,)),
                        ("doc_head.weight", (n_codes + state_dim,)), ("doc_head.bias", ())):
        store.add(name, rng.uniform(-2.0, 2.0, size=shape))
    return store


@st.composite
def head_cases(draw):
    """One document's states and head parameters, its labels and target, and
    the loss coefficients."""
    rows = draw(st.integers(1, 7))
    labels = draw(st.one_of(
        st.just([None] * rows),
        st.lists(st.one_of(st.none(), st.integers(0, len(SCHEME.codes) - 1)),
                 min_size=rows, max_size=rows)))
    target = draw(st.one_of(st.none(), st.floats(-1.0, 1.0)))
    config = ModelConfig(alpha=draw(st.sampled_from([0.0, 0.3, 1.0])),
                         beta=draw(st.sampled_from([0.0, 0.1])),
                         gamma=draw(st.sampled_from([0.0, 0.7])))
    return draw(st.integers(0, 2**32 - 1)), labels, target, config


class TestHeadNode:
    """The heads and losses of a document as one tape node, against the
    composed per-op tape of ``reference_model``."""

    @settings(max_examples=300, deadline=None)
    @given(head_cases())
    def test_loss_node_equals_composed_tape_bitwise(self, case):
        seed, labels, target, config = case
        store = head_store(np.random.default_rng(seed), len(labels))
        code_gold = np.array([-1 if k is None else k for k in labels])
        pol_gold = np.array([-1 if k is None else POLARITY_ORDER.index(
            SCHEME.polarity_of(SCHEME.codes[k])) for k in labels])
        results = []
        for head_loss, labels in ((hm._head_loss, hm._labelled), (rm.head_loss, lambda g: g)):
            store.zero_grad()
            try:
                total, parts = head_loss(store, store["states"], labels(code_gold),
                                         labels(pol_gold), target, config)
            except ValueError as err:
                results.append(str(err))
                continue
            dc.backward(total)
            results.append((total.value, parts, store.grads.copy()))
        fused, composed = results
        if isinstance(composed, str):
            assert fused == composed == "no loss components to combine"
            return
        assert np.array_equal(fused[0], composed[0])
        assert fused[1] == composed[1]
        assert np.array_equal(fused[2], composed[2])  # the states and the six head tensors

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 6), min_size=1, max_size=5))
    def test_head_values_equal_composed_forward_bitwise(self, seed, counts):
        store = head_store(np.random.default_rng(seed), sum(counts))
        states = store["states"].value
        code, pol, doc_vectors, scores = hm._heads(store, states, counts)
        unlabeled = np.full(sum(counts), -1)
        ref = rm.heads(store, constant(states), counts, unlabeled, unlabeled)
        for fused, composed in zip((code.probs, pol.probs, doc_vectors, scores),
                                   (ref[0], ref[1], ref[4], ref[5])):
            assert np.array_equal(fused, composed.value)

    def test_document_loss_tape_is_the_encoder_and_one_head_node(self):
        corpus = small_corpus()
        params, _ = train(corpus, tiny_config(epochs=0))
        store = params.store
        total, _ = document_loss(params, corpus.manifestos[0])
        nodes, stack = {id(total): total}, [total]
        while stack:
            for parent in stack.pop().parents:
                if id(parent) not in nodes:
                    nodes[id(parent)] = parent
                    stack.append(parent)
        assert len(nodes) == 19
        assert sum(id(t) in nodes for _, t in store) == 15
        assert total.parents[1:] == tuple(store[name] for name in HEADS)
        # sentence level, the word level's final states, gather, embeddings
        states = total.parents[0]
        assert states.parents[1:] == tuple(
            store[f"sent_{d}.{k}"] for d in ("fwd", "bwd") for k in ("weight", "bias"))
        word = states.parents[0]
        assert word.value.shape == (len(corpus.manifestos[0].sentences), 8)
        assert word.parents[1:] == tuple(
            store[f"word_{d}.{k}"] for d in ("fwd", "bwd") for k in ("weight", "bias"))
        assert word.parents[0].parents == (store["embed.matrix"],)


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
        logits = ops.add(ops.matmul(state, store["code_head.weight"]), store["code_head.bias"])
        pol_logits = ops.add(ops.matmul(state, store["pol_head.weight"]), store["pol_head.bias"])
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
        pooled.append(ops.concat([probs, state]))
    doc_vector = ops.mean(pooled)
    rile_hat = ops.tanh(ops.add(ops.matmul(doc_vector, store["doc_head.weight"]),
                              store["doc_head.bias"]))
    target = constant(effective_rile(manifesto, scheme))
    margins = [ops.matmul(p, constant(np.array([-1.0, 1.0, 0.0]))) for p in pol_probs]
    total = combine_losses(
        ops.mean(code_xents) if code_xents else None,
        ops.square(ops.sub(rile_hat, target)),
        ops.mean(pol_xents) if pol_xents else None,
        ops.square(ops.sub(ops.mean(margins), target)),
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

    def test_equals_a_loop_over_the_reference_paths_bitwise(self):
        """Two epochs of ``train`` against a loop that follows its shuffle and
        builds each step from the reference paths: ``bilstm_pair`` at both
        levels over padded batches, the composed ``head_loss`` and the
        per-tensor ``Adam``.  Every parameter and every ``EpochLog`` match.
        The corpus holds a one-sentence document and a one-token sentence
        beside longer ones."""
        base = small_corpus()
        corpus = Corpus(manifestos=base.manifestos + (
            make_doc("m5", ["freedom"], codes=["401"], rile=0.5),
            make_doc("m6", ["jetzt", "mehr schulen bauen"], codes=["504", "506"], rile=-0.3,
                     lang="bb", country="BB", party="p4"),
        ), scheme=SCHEME)
        config = tiny_config(epochs=2)
        params, logs = train(corpus, config)

        docs = training_documents(corpus)
        init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
        ref = hm._build_params(Vocabulary.build(docs, config.vocab_cap), corpus.scheme, config,
                               np.random.default_rng(init_seq), None)
        shuffle_rng = np.random.default_rng(shuffle_seq)
        optimizer = ops.Adam(ref.store, lr=config.learning_rate, clip_norm=config.grad_clip)
        ref_logs = []
        order = np.arange(len(docs))
        for epoch in range(config.epochs):
            shuffle_rng.shuffle(order)
            total = norms = 0.0
            clipped = 0
            sums: dict = {}
            for idx in order:
                ref.store.zero_grad()
                loss, parts = rm.document_loss(ref, docs[idx], config)
                dc.backward(loss)
                norm = optimizer.step()
                norms += norm
                clipped += norm > config.grad_clip
                total += float(loss.value)
                for name, value in parts.items():
                    sums.setdefault(name, []).append(value)
            ref_logs.append(hm.EpochLog(
                epoch=epoch, mean_loss=total / len(docs),
                components={name: sum(values) / len(values) for name, values in sums.items()},
                grad_norm=norms / len(docs), clipped=clipped))
        assert logs == ref_logs
        assert params.store.names == ref.store.names
        for name in params.store.names:
            assert params.store[name].value.tobytes() == ref.store[name].value.tobytes(), name

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

    def test_inputs_are_built_per_call_and_not_kept(self):
        """Training on A and then on B, which shares A's documents under
        another vocabulary, gives B's result alone; no model keeps inputs."""
        a = small_corpus()
        fresh = make_doc("n1", ["brand new words lead", "new words again"],
                         codes=["401", "504"], rile=0.1)
        b = Corpus(manifestos=(fresh,) + a.manifestos, scheme=SCHEME)
        # the same documents as new objects, trained before anything saw B's
        copies = Corpus(manifestos=tuple(dataclasses.replace(m) for m in b.manifestos),
                        scheme=SCHEME)
        alone, logs_alone = train(copies, tiny_config())
        params_a, _ = train(a, tiny_config())
        params_b, logs_b = train(b, tiny_config())
        shared = a.manifestos[0]
        assert not np.array_equal(hm._token_ids(params_a.vocab, [shared])[0],
                                  hm._token_ids(params_b.vocab, [shared])[0])
        assert logs_b == logs_alone
        assert np.array_equal(params_b.store.values, alone.store.values)
        assert params_a._inputs == params_b._inputs == alone._inputs == {}

    def test_inputs_follow_a_new_vocabulary(self):
        params, _ = train(small_corpus(), tiny_config(epochs=0))
        doc = small_corpus().manifestos[0]
        first, _ = document_loss(params, doc)
        params.vocab = Vocabulary.from_tokens(params.vocab.tokens[::-1])
        second, _ = document_loss(params, doc)
        expected, _ = rm.document_loss(params, doc)
        assert second.value == expected.value != first.value

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

    @pytest.mark.parametrize("grad_clip", [1e-9, 1e9])
    def test_epoch_logs_record_norms_before_clipping(self, grad_clip, monkeypatch):
        """Every step is clipped at 1e-9 and none at 1e9; ``grad_norm`` is the
        mean of the norms the steps saw before clipping."""
        norms = []
        step = dc.Adam.step

        def recording_step(self):
            expected = 0.0
            for _, t in self.store:
                expected += float(np.sum(t.grad * t.grad))
            norms.append(step(self))
            assert norms[-1] == np.sqrt(expected)
            return norms[-1]

        monkeypatch.setattr(dc.Adam, "step", recording_step)
        corpus = small_corpus()
        _, logs = train(corpus, tiny_config(grad_clip=grad_clip))
        steps = len(training_documents(corpus))
        assert len(norms) == steps * len(logs)
        for log in logs:
            epoch = norms[log.epoch * steps:(log.epoch + 1) * steps]
            assert log.grad_norm == sum(epoch) / steps
            assert log.clipped == (steps if grad_clip < 1 else 0)

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


def recorded_predict(monkeypatch, params, docs):
    """``predict(params, docs)``, with each LSTM node it builds recorded as
    (level, sequences, steps, hidden) and each ``_heads`` call as its counts."""
    nodes, heads = [], []
    bilstm_batch, run_heads = dc.bilstm_batch, hm._heads

    def recording_bilstm_batch(x, forward, backward, layout, final_only=False):
        level = "word" if final_only else "sentence"
        nodes.append((level, layout.batch, layout.steps, forward[1].value.shape[0] // 4))
        return bilstm_batch(x, forward, backward, layout, final_only)

    def recording_heads(store, states, counts):
        heads.append([int(n) for n in counts])
        return run_heads(store, states, counts)

    monkeypatch.setattr(dc, "bilstm_batch", recording_bilstm_batch)
    monkeypatch.setattr(hm, "_heads", recording_heads)
    return predict(params, docs), nodes, heads


def gate_values(sequences, steps, hidden):
    """Values in each direction's half of a chunk's padded gate array."""
    return sequences * steps * 4 * hidden


class TestBatchedPredict:
    """``predict`` runs both LSTM levels and the heads in chunks of the
    documents; the per-step ``reference_forward`` is the reference."""

    def setup_method(self):
        self.params, _ = train(small_corpus(), tiny_config())
        self.docs = small_corpus().manifestos + tuple(EDGE_DOCS.values())
        # trained this briefly, every sentence gets the same code and polarity;
        # weights out of the near-linear init regime make them differ, so that
        # rows read in the wrong order show
        rng = np.random.default_rng(9)  # 4 codes and all 3 polarities over 12 sentences
        for _, t in self.params.store:
            t.value[...] = rng.uniform(-1.0, 1.0, size=t.value.shape)

    def assert_matches_per_document_pass(self, docs, preds=None):
        preds = predict(self.params, docs) if preds is None else preds
        assert [p.manifesto_id for p in preds] == [d.id for d in docs]
        for pred, doc in zip(preds, docs):
            doc_vector, rile_hat, _, code_probs, pol_probs = reference_forward(self.params, doc)
            assert pred.rile_hat == pytest.approx(float(rile_hat.value), abs=1e-10)
            np.testing.assert_allclose(pred.doc_vector, doc_vector.value, rtol=0, atol=1e-10)
            assert pred.codes == tuple(SCHEME.codes[np.argmax(p.value)] for p in code_probs)
            assert pred.polarities == tuple(
                POLARITY_ORDER[np.argmax(p.value)] for p in pol_probs)
            assert pred.doc_vector.base is None

    def test_one_batch_matches_per_document_pass(self, monkeypatch):
        preds, nodes, heads = recorded_predict(monkeypatch, self.params, self.docs)
        assert [level for level, *_ in nodes] == ["word", "sentence"]
        assert heads == [[3, 2, 2, 2, 2, 1]]  # documents longest first, stably
        self.assert_matches_per_document_pass(self.docs, preds)

    def test_several_batches_match_per_document_pass(self, monkeypatch):
        # at hidden 4, a chunk holds two sequences of 4 or 3 steps, or four of 2
        monkeypatch.setattr(hm, "_BATCH_VALUES", 128)
        preds, nodes, heads = recorded_predict(monkeypatch, self.params, self.docs)
        assert [(level, b) for level, b, *_ in nodes] == (
            [("word", 2)] * 6 + [("sentence", 2), ("sentence", 4)])
        assert heads == [[3, 2], [2, 2, 2, 1]]
        self.assert_matches_per_document_pass(self.docs, preds)

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

    def test_batches_respect_the_budget(self, monkeypatch):
        monkeypatch.setattr(hm, "_BATCH_VALUES", 512)  # at hidden 4, 32 steps
        big = make_doc("big", [" ".join(["w"] * 40)] + ["w"] * 40)  # over it at both levels
        docs = list(self.docs) * 40 + [big]
        _, nodes, heads = recorded_predict(monkeypatch, self.params, docs)
        sentence_hidden = self.params.config.sentence_hidden
        for level in ("word", "sentence"):
            chunks = [(b, t, n) for lv, b, t, n in nodes if lv == level]
            assert chunks[0][0] == 1 and gate_values(*chunks[0]) > hm._BATCH_VALUES
            assert all(gate_values(*c) <= hm._BATCH_VALUES for c in chunks[1:])
            # each chunk closed because one more sequence would have broken the budget
            assert all(gate_values(b + 1, t, n) > hm._BATCH_VALUES for b, t, n in chunks[:-1])
        assert heads[0] == [len(big.sentences)]
        assert all(gate_values(len(c), max(c), sentence_hidden) <= hm._BATCH_VALUES
                   for c in heads[1:])
        assert sorted(n for c in heads for n in c) == sorted(len(d.sentences) for d in docs)
        assert len(heads) == sum(level == "sentence" for level, *_ in nodes) > 2

    def test_over_budget_document_runs_alone(self, monkeypatch):
        monkeypatch.setattr(hm, "_BATCH_VALUES", 4 * 16)  # at hidden 4, four sentences
        big = make_doc("big", ["w"] * 5)
        docs = [EDGE_DOCS["padded"], big, EDGE_DOCS["one_sentence"]]
        preds, nodes, heads = recorded_predict(monkeypatch, self.params, docs)
        assert [b for level, b, *_ in nodes if level == "sentence"] == [1, 1, 1]
        assert heads == [[5], [3], [1]]
        self.assert_matches_per_document_pass(docs, preds)


def level_lengths(level, docs):
    """The sequence lengths ``predict`` chunks at an LSTM ``level``: the
    sentences' token counts, or the documents' sentence counts."""
    if level == "word":
        return np.array([len(s.tokens) for d in docs for s in d.sentences])
    return np.array([len(d.sentences) for d in docs])


class TestChunks:
    """``predict`` runs each LSTM level over all of its documents' sequences,
    in ``_chunks`` sorted longest first."""

    setup_method = TestBatchedPredict.setup_method
    assert_matches_per_document_pass = TestBatchedPredict.assert_matches_per_document_pass

    @pytest.mark.parametrize("level", ["word", "sentence"])
    def test_split_chunks_match_per_document_pass(self, level, monkeypatch):
        # at hidden 4, a chunk holds two sequences of 4 steps, or of 3
        budget = gate_values(2, 4, 4)
        monkeypatch.setattr(hm, "_BATCH_VALUES", budget)
        lengths = level_lengths(level, self.docs)
        chunks = hm._chunks(lengths, getattr(self.params.config, f"{level}_hidden"))
        order = [int(i) for chunk in chunks for i in chunk]
        assert order == sorted(range(len(lengths)), key=lambda i: -lengths[i])  # stable
        assert order != list(range(len(lengths)))  # so the rows are written back
        assert all(gate_values(len(c), lengths[c].max(), 4) <= budget for c in chunks)
        assert len(chunks) > 1
        if level == "word":
            doc_of = np.repeat(np.arange(len(self.docs)), level_lengths("sentence", self.docs))
            assert any(len(set(doc_of[c])) > 1 for c in chunks)
            chunk_of = {i: k for k, c in enumerate(chunks) for i in c}
            assert any(len({chunk_of[i] for i in np.flatnonzero(doc_of == d)}) > 1
                       for d in range(len(self.docs)))
        self.assert_matches_per_document_pass(self.docs)

    @pytest.mark.parametrize("level", ["word", "sentence"])
    def test_over_budget_sequence_is_a_chunk_of_one(self, level, monkeypatch):
        monkeypatch.setattr(hm, "_BATCH_VALUES", 4 * 16)  # at hidden 4, four steps
        sizes = (2, 5, 1, 5)
        if level == "word":
            docs = [make_doc("d", [" ".join(["w"] * k) for k in sizes])]
        else:
            docs = [make_doc(f"d{i}", ["w"] * k) for i, k in enumerate(sizes)]
        lengths = level_lengths(level, docs)
        assert lengths.tolist() == list(sizes)
        chunks = hm._chunks(lengths, 4)
        assert [c.tolist() for c in chunks] == [[1], [3], [0, 2]]
        self.assert_matches_per_document_pass(docs)


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
        assert len(store.names) == 15
        for prefix, d_in, n in (("word_fwd", config.embed_dim, config.word_hidden),
                                ("sent_bwd", 2 * config.word_hidden, config.sentence_hidden)):
            assert store[f"{prefix}.weight"].value.shape == (d_in + n, 4 * n)
            assert store[f"{prefix}.bias"].value.shape == (4 * n,)

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
        assert "embed.matrix" not in params.store.names
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
