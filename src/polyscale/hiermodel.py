"""Hierarchical multi-task document scaler.

A word-level bidirectional LSTM turns each sentence into a vector, a
sentence-level bidirectional LSTM contextualizes the sentence sequence, and
three heads share those states: a 57-way sentence code classifier, a 3-way
sentence polarity classifier, and a document regression head that maps the
mean of [code distribution; sentence state] vectors through a linear layer
and tanh to a left-right score in [-1, 1].

Training minimizes, per document,

    alpha * L_sentence + (1 - alpha) * L_doc
        + beta * L_polarity + gamma * L_structure

where L_sentence and L_polarity are mean cross-entropies over the labeled
sentences, L_doc is the squared error of the document score, and
L_structure is the squared gap between the mean per-sentence (right - left)
polarity probability margin and the document target.  Terms whose inputs
are absent (for documents without sentence labels) or whose coefficient is
zero are skipped entirely, so e.g. alpha=1, beta=gamma=0 reproduces the
pure sentence classifier bit for bit.

Documents qualify for training when they carry a document score or are
fully sentence-annotated (the score then follows from the gold codes).
The vocabulary is built from those documents only, so adding unlabeled
documents to a corpus never changes the fitted parameters.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import diffcore as dc
from .corpus import Corpus, LabelScheme, Manifesto, Polarity, compute_rile
from .embedalign import EmbeddingTable

log = logging.getLogger(__name__)

POLARITY_ORDER = (Polarity.LEFT, Polarity.RIGHT, Polarity.NEUTRAL)
_STRUC_SIGNS = np.array([-1.0, 1.0, 0.0])
UNK = "<unk>"
CHECKPOINT_MAGIC = b"PSCL2\n"


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 50
    word_hidden: int = 32
    sentence_hidden: int = 32
    alpha: float = 0.3
    beta: float = 0.1
    gamma: float = 0.7
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    epochs: int = 5
    seed: int = 0
    trainable_embeddings: bool = True
    vocab_cap: int = 20_000

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        # written so that NaN fails too
        if not (self.beta >= 0 and self.gamma >= 0):
            raise ValueError(
                f"beta and gamma must be nonnegative, got {self.beta} and {self.gamma}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("embed_dim", "word_hidden", "sentence_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.vocab_cap < 1:
            raise ValueError("vocab_cap must be positive")
        if not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip}")


@dataclass(frozen=True)
class Vocabulary:
    """Language-namespaced token ids with per-language unknown slots."""

    tokens: tuple[str, ...]
    index: dict

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        tokens = tuple(tokens)
        return cls(tokens, {tok: i for i, tok in enumerate(tokens)})

    @classmethod
    def build(cls, docs: Sequence[Manifesto], cap: int) -> "Vocabulary":
        counts: dict[str, int] = {}
        first_seen: dict[str, int] = {}
        languages: list[str] = []
        for doc in docs:
            if doc.language not in languages:
                languages.append(doc.language)
            for sentence in doc.sentences:
                for token in sentence.tokens:
                    key = f"{doc.language}:{token.lower()}"
                    if key not in counts:
                        counts[key] = 0
                        first_seen[key] = len(first_seen)
                    counts[key] += 1
        budget = cap - len(languages)
        if budget < 0:
            raise ValueError(
                f"vocab_cap {cap} cannot hold unknown-token slots for "
                f"{len(languages)} languages"
            )
        ranked = sorted(counts, key=lambda k: (-counts[k], first_seen[k]))[:budget]
        ranked.sort(key=first_seen.__getitem__)
        tokens = [f"{lang}:{UNK}" for lang in languages] + ranked
        return cls.from_tokens(tokens)

    def __len__(self):
        return len(self.tokens)

    def id_of(self, language: str, token: str) -> int:
        tid = self.index.get(f"{language}:{token.lower()}")
        if tid is None:
            tid = self.index.get(f"{language}:{UNK}")
        if tid is None:
            raise ValueError(f"language {language!r} is not in the vocabulary")
        return tid


@dataclass
class HierParams:
    """Everything needed to run the model: weights, vocabulary, config."""

    store: dc.ParameterStore
    vocab: Vocabulary
    config: ModelConfig
    scheme: LabelScheme
    frozen_embed: np.ndarray | None = None
    # per-document inputs of ``document_loss`` (``_document_inputs``), which
    # ``train`` empties before it returns
    _inputs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def embedding_tensor(self) -> dc.Tensor:
        if self.frozen_embed is not None:
            return dc.constant(self.frozen_embed)
        return self.store["embed.matrix"]


def effective_rile(manifesto: Manifesto, scheme: LabelScheme) -> float | None:
    """Training target: explicit score, else derived from full gold codes."""
    if manifesto.rile_gold is not None:
        return manifesto.rile_gold
    if manifesto.fully_annotated:
        codes = [s.gold_code for s in manifesto.sentences]
        return compute_rile(codes, scheme)
    return None


def training_documents(corpus: Corpus) -> list[Manifesto]:
    return [m for m in corpus.manifestos if effective_rile(m, corpus.scheme) is not None]


def _build_params(
    vocab: Vocabulary,
    scheme: LabelScheme,
    config: ModelConfig,
    rng: np.random.Generator,
    embeddings: EmbeddingTable | None,
) -> HierParams:
    store = dc.ParameterStore()
    n_codes = len(scheme.codes)
    frozen = None
    if config.trainable_embeddings:
        matrix = rng.uniform(-dc.INIT_SCALE, dc.INIT_SCALE, (len(vocab), config.embed_dim))
        if embeddings is not None:
            _copy_pretrained(matrix, vocab, embeddings, config.embed_dim)
        store.add("embed.matrix", matrix)
    else:
        if embeddings is None:
            raise ValueError("frozen embeddings require a pretrained embedding table")
        frozen = np.zeros((len(vocab), config.embed_dim))
        _copy_pretrained(frozen, vocab, embeddings, config.embed_dim)
    dc.init_lstm_params(store, "word_fwd", config.embed_dim, config.word_hidden, rng)
    dc.init_lstm_params(store, "word_bwd", config.embed_dim, config.word_hidden, rng)
    sent_in = 2 * config.word_hidden
    dc.init_lstm_params(store, "sent_fwd", sent_in, config.sentence_hidden, rng)
    dc.init_lstm_params(store, "sent_bwd", sent_in, config.sentence_hidden, rng)
    state_dim = 2 * config.sentence_hidden

    def u(shape):
        return rng.uniform(-dc.INIT_SCALE, dc.INIT_SCALE, shape)

    store.add("code_head.weight", u((state_dim, n_codes)))
    store.add("code_head.bias", u((n_codes,)))
    store.add("pol_head.weight", u((state_dim, 3)))
    store.add("pol_head.bias", u((3,)))
    store.add("doc_head.weight", u((n_codes + state_dim,)))
    store.add("doc_head.bias", u(()))
    return HierParams(store, vocab, config, scheme, frozen)


def _copy_pretrained(matrix, vocab, embeddings, embed_dim):
    if embeddings.dim != embed_dim:
        raise ValueError(
            f"embedding table dimension {embeddings.dim} does not match "
            f"embed_dim {embed_dim}"
        )
    hits = 0
    for i, token in enumerate(vocab.tokens):
        if token in embeddings:
            matrix[i] = embeddings.vector(token)
            hits += 1
    log.info("initialized %d of %d vocabulary rows from pretrained vectors", hits, len(vocab.tokens))


def _token_ids(vocab: Vocabulary, manifestos: Sequence[Manifesto]) -> tuple[np.ndarray, list[int]]:
    """The token ids of every sentence of the documents, in order, one
    sentence after another, and each sentence's length."""
    sentences = [(m.language, s) for m in manifestos for s in m.sentences]
    known: dict[str, dict[str, int]] = {}  # language -> token -> id, each looked up once
    flat = []
    for language, sentence in sentences:
        ids_of = known.setdefault(language, {})
        for tok in sentence.tokens:
            tid = ids_of.get(tok)
            if tid is None:
                tid = ids_of[tok] = vocab.id_of(language, tok)
            flat.append(tid)
    return np.array(flat, dtype=np.intp), [len(s.tokens) for _, s in sentences]


def _encoder_inputs(vocab: Vocabulary, manifestos: Sequence[Manifesto]):
    """What the encoder reads of a batch of documents: the ``_token_ids`` of
    their sentences, the ``ScanLayout`` of the sentences' lengths (the word
    level, ``_word_vectors``) and that of the documents' sentence counts (the
    sentence level, ``_sentence_states``)."""
    ids, lengths = _token_ids(vocab, manifestos)
    return ids, dc.ScanLayout(lengths), dc.ScanLayout([len(m.sentences) for m in manifestos])


def _lstm(store: dc.ParameterStore, level: str):
    """The forward and backward (weight, bias) pairs of an LSTM level."""
    return tuple((store[f"{level}_{d}.weight"], store[f"{level}_{d}.bias"])
                 for d in ("fwd", "bwd"))


def _word_vectors(params: HierParams, ids: np.ndarray,
                  words: dc.ScanLayout) -> dc.Tensor:
    """Sentence vectors, (sentences, 2 * word_hidden): one word-level LSTM
    node over the sentences whose token ``ids`` are packed one sentence after
    another with lengths ``words``, returning each sentence's final states,
    in the same order."""
    embedded = dc.gather(params.embedding_tensor(), ids)
    return dc.bilstm_batch(embedded, *_lstm(params.store, "word"), words, final_only=True)


def _sentence_states(params: HierParams, vectors: dc.Tensor,
                     sentences: dc.ScanLayout) -> dc.Tensor:
    """Sentence states, (sentences, 2 * sentence_hidden): one sentence-level
    LSTM node over the ``vectors`` of a batch of documents, one sequence per
    document with the sentence counts ``sentences``, rows in the same order."""
    return dc.bilstm_batch(vectors, *_lstm(params.store, "sent"), sentences)


class _Softmax(NamedTuple):
    """A head's (rows, classes) logits and row-wise softmax, with each row's
    max and sum of exponentials for the cross-entropy."""

    logits: np.ndarray
    peak: np.ndarray
    total: np.ndarray
    probs: np.ndarray

    @classmethod
    def of(cls, states: np.ndarray, weight: dc.Tensor, bias: dc.Tensor) -> "_Softmax":
        logits = states @ weight.value + bias.value
        peak = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - peak)
        total = e.sum(axis=1, keepdims=True)
        return cls(logits, peak, total, e / total)

    def xent(self, labelled):
        """Mean cross-entropy over the ``_labelled`` rows, with those rows,
        their indices and 1 / their count; None without any."""
        if labelled is None:
            return None
        rows, cols, inv = labelled
        xents = (self.peak[rows, 0] + np.log(self.total[rows, 0])) - self.logits[rows, cols]
        return float(xents.sum() * inv), rows, cols, inv


def _labelled(gold: np.ndarray):
    """The rows whose ``gold`` index is not -1, their indices and 1 / their
    count; None without any."""
    rows = np.flatnonzero(gold >= 0)
    if not rows.size:
        return None
    return rows, gold[rows], 1.0 / rows.size


def _heads(store: dc.ParameterStore, states: np.ndarray, counts):
    """The three heads over (sentences, state) ``states`` of documents with
    ``counts`` sentences each: the code and polarity ``_Softmax``, and per
    document the mean [code probabilities; state] row and the score.

    A document's mean sums its rows in order over a zero-padded (documents,
    most sentences, K) array, or as a plain row sum when it is alone (the
    same bits), and its score is its own (1, K) @ (K, 1) dot.  ``predict``
    calls this once per sentence-level chunk (``_chunks``), so the padded
    array holds at most that chunk's documents; ``document_loss`` makes the
    values of one document one tape node with its losses.  A document's
    states, and so its heads, can differ in the last bits between the
    chunks ``predict`` puts its sentences and itself in: the BLAS products
    pick their summation order by operand shape.
    """
    code = _Softmax.of(states, store["code_head.weight"], store["code_head.bias"])
    pol = _Softmax.of(states, store["pol_head.weight"], store["pol_head.bias"])
    rows = np.concatenate((code.probs, states), axis=1)
    if len(counts) == 1:
        doc_vectors = rows.sum(axis=0, keepdims=True) * (1.0 / counts[0])
    else:
        counts = np.asarray(counts)
        real = np.arange(counts.max()) < counts[:, None]
        padded = np.zeros(real.shape + rows.shape[1:])
        padded[real] = rows
        doc_vectors = padded.sum(axis=1) * (1.0 / counts)[:, None]
    w = store["doc_head.weight"].value
    scores = np.tanh((doc_vectors[:, None, :] @ w[:, None])[:, 0, 0] + store["doc_head.bias"].value)
    return code, pol, doc_vectors, scores


class _DocInputs(NamedTuple):
    """What ``document_loss`` reads of a document besides the parameters:
    ``_encoder_inputs`` (the flat token ids and the two scan layouts), the
    ``_labelled`` rows of the sentence codes and polarities, and the target.
    ``source`` holds the document, vocabulary and scheme they were built
    from, so the ids that key them stay theirs."""

    source: tuple
    ids: np.ndarray
    words: dc.ScanLayout
    sentences: dc.ScanLayout
    code_labels: tuple | None
    pol_labels: tuple | None
    target: float | None


def _document_inputs(params: HierParams, manifesto: Manifesto) -> _DocInputs:
    """The document's inputs, built on the first call for this document,
    vocabulary and scheme and then read from ``params._inputs``."""
    source = (manifesto, params.vocab, params.scheme)
    key = tuple(map(id, source))
    inputs = params._inputs.get(key)
    if inputs is None:
        scheme = params.scheme
        codes = [s.gold_code for s in manifesto.sentences]
        inputs = params._inputs[key] = _DocInputs(
            source,
            *_encoder_inputs(params.vocab, [manifesto]),
            _labelled(np.array([-1 if c is None else scheme.index(c) for c in codes],
                               dtype=np.intp)),
            _labelled(np.array([-1 if c is None else POLARITY_ORDER.index(scheme.polarity_of(c))
                                for c in codes], dtype=np.intp)),
            effective_rile(manifesto, scheme),
        )
    return inputs


def _head_loss(store: dc.ParameterStore, states: dc.Tensor, code_labels, pol_labels,
               target: float | None, config: ModelConfig) -> tuple[dc.Tensor, dict]:
    """The heads and losses of one document's sentence ``states`` as one tape
    node, whose parents are ``states`` and the six head parameters.
    ``code_labels`` and ``pol_labels`` are the ``_labelled`` rows of the
    sentences' code and polarity indices.

    Its value is the weighted sum of the terms in ``parts`` (sentence, doc,
    polarity, structure: those whose inputs are present) whose coefficient
    is not zero, added in that order.  The vector-Jacobian product repeats
    the arithmetic of the per-op tape it replaces (``dense``, softmax and
    cross-entropy per head, concat, segment mean, ``tanh``, and the squared
    errors), and adds each shared gradient's contributions in that tape's
    order, so values and gradients keep its bits: the states take the
    concat slice, then the code head's, then the polarity head's; each
    logits array takes its cross-entropy term, then its softmax term.
    """
    sv = states.value
    count = sv.shape[0]
    weights = [store[f"{head}.{k}"] for head in ("code_head", "pol_head", "doc_head")
               for k in ("weight", "bias")]
    code, pol, doc_vectors, scores = _heads(store, sv, [count])
    code_xent = code.xent(code_labels)
    pol_xent = pol.xent(pol_labels)
    parts = {}
    if code_xent is not None:
        parts["sentence"] = code_xent[0]
    if target is not None:
        gap = float(scores[0]) - target
        parts["doc"] = gap * gap
    if pol_xent is not None:
        parts["polarity"] = pol_xent[0]
    if target is not None:
        # each row's (-1, 1, 0) dot, plus the zero bias the per-op tape adds
        margins = (pol.probs[:, None, :] @ _STRUC_SIGNS[:, None])[:, 0, 0] + 0.0
        struc_gap = float(margins.sum() * (1.0 / count)) - target
        parts["structure"] = struc_gap * struc_gap
    coefs = {"sentence": config.alpha, "doc": 1.0 - config.alpha,
             "polarity": config.beta, "structure": config.gamma}
    terms = {name: float(coefs[name]) for name in parts if coefs[name] != 0.0}
    if not terms:
        raise ValueError("no loss components to combine")
    total = None
    for name, c in terms.items():
        total = c * parts[name] if total is None else total + c * parts[name]

    def logits_grad(soft, xent, weight, probs_grad):
        """The cross-entropy term (its loss gradient ``weight``), then the
        softmax term of ``probs_grad``; a None weight or gradient skips it."""
        d = np.zeros_like(soft.logits)
        if weight is not None:
            _, rows, cols, inv = xent
            d[rows] += (weight * inv) * soft.probs[rows]
            d[rows, cols] -= weight * inv
        if probs_grad is not None:
            p = soft.probs
            d += p * (probs_grad - np.sum(probs_grad * p, axis=1, keepdims=True))
        return d

    def vjp(g, grads):
        w = {name: c * g for name, c in terms.items()}  # each term's loss gradient
        out = [np.zeros_like(sv)] + [None] * 6  # the states', then the head tensors'
        d_rows = d_pol_probs = d_code = d_pol = None
        if "doc" in w:  # tanh, the doc head, then the mean over the rows
            d_score = np.array([2.0 * gap * w["doc"]]) * (1.0 - scores * scores)
            out[5], out[6] = d_score @ doc_vectors, d_score.sum()
            d_rows = np.repeat((1.0 / count) * np.multiply.outer(d_score, weights[4].value),
                               count, axis=0)
        if "structure" in w:
            d_margin = np.full(count, (1.0 / count) * (2.0 * struc_gap * w["structure"]))
            d_pol_probs = np.multiply.outer(d_margin, _STRUC_SIGNS)
        n_codes = code.logits.shape[1]
        if "sentence" in w or "doc" in w:
            d_code = logits_grad(code, code_xent, w.get("sentence"),
                                 None if d_rows is None else d_rows[:, :n_codes])
        if "polarity" in w or "structure" in w:
            d_pol = logits_grad(pol, pol_xent, w.get("polarity"), d_pol_probs)
        if d_rows is not None:
            out[0] += d_rows[:, n_codes:]
        for k, d in ((0, d_code), (2, d_pol)):
            if d is not None:
                out[0] += d @ weights[k].value.T
                out[k + 1], out[k + 2] = sv.T @ d, d.sum(axis=0)
        for acc, d in zip(grads, out):
            if acc is not None and d is not None:
                np.add(acc, d, out=acc)

    return dc.Tensor(total, (states, *weights), vjp), parts


def document_loss(
    params: HierParams, manifesto: Manifesto, config: ModelConfig | None = None
) -> tuple[dc.Tensor, dict]:
    """Total loss tensor for one document plus per-component values.

    The tape is the encoder's nodes and one head node (``_head_loss``).
    """
    config = config or params.config
    inputs = _document_inputs(params, manifesto)
    states = _sentence_states(params, _word_vectors(params, inputs.ids, inputs.words),
                              inputs.sentences)
    return _head_loss(params.store, states, inputs.code_labels, inputs.pol_labels,
                      inputs.target, config)


@dataclass(frozen=True)
class EpochLog:
    """One epoch of ``train``: the mean loss and its components, the mean
    gradient norm before clipping, and how many steps were clipped."""

    epoch: int
    mean_loss: float
    components: dict
    grad_norm: float
    clipped: int


def train(
    corpus: Corpus,
    config: ModelConfig | None = None,
    embeddings: EmbeddingTable | None = None,
) -> tuple[HierParams, list[EpochLog]]:
    """Fit on every document with a usable document-level target.

    Raises ``ValueError`` naming the epoch and the document when a loss is
    not finite, before that document's backward pass and update.
    """
    config = config or ModelConfig()
    docs = training_documents(corpus)
    if not docs:
        raise ValueError("corpus contains no trainable documents")
    vocab = Vocabulary.build(docs, config.vocab_cap)
    init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
    init_rng = np.random.default_rng(init_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    params = _build_params(vocab, corpus.scheme, config, init_rng, embeddings)
    optimizer = dc.Adam(params.store, lr=config.learning_rate, clip_norm=config.grad_clip)
    log.info(
        "training on %d documents, %d parameters, vocab %d",
        len(docs), params.store.n_values(), len(vocab),
    )

    logs: list[EpochLog] = []
    order = np.arange(len(docs))
    for epoch in range(config.epochs):
        shuffle_rng.shuffle(order)
        total = norms = 0.0
        clipped = 0
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for idx in order:
            doc = docs[idx]
            params.store.zero_grad()
            loss, parts = document_loss(params, doc, config)
            if not np.isfinite(loss.value):
                raise ValueError(f"epoch {epoch}: the loss of document {doc.id!r} is "
                                 f"{float(loss.value)}; no update was applied for it")
            dc.backward(loss)
            norm = optimizer.step()
            norms += norm
            clipped += norm > config.grad_clip
            total += float(loss.value)
            for name, value in parts.items():
                sums[name] = sums.get(name, 0.0) + value
                counts[name] = counts.get(name, 0) + 1
        entry = EpochLog(
            epoch=epoch,
            mean_loss=total / len(docs),
            components={name: sums[name] / counts[name] for name in sums},
            grad_norm=norms / len(docs),
            clipped=clipped,
        )
        logs.append(entry)
        log.info("epoch %d mean loss %.6f", entry.epoch, entry.mean_loss)
    # the inputs were built for this call; the returned model keeps none
    params._inputs.clear()
    return params, logs


@dataclass(frozen=True)
class DocPrediction:
    manifesto_id: str
    rile_hat: float
    codes: tuple[str, ...]
    polarities: tuple[Polarity, ...]
    doc_vector: np.ndarray


# Values in each direction's half of the gate array of one predict chunk of
# sequences (~512 KB a half): padded slots times 4 * hidden, for the word
# level's sentences and the sentence level's documents alike.  ``predict``
# cuts both levels' chunks (``_chunks``) by it, and runs ``_heads`` once per
# sentence-level chunk.  Larger chunks add little speed and hold more memory
# at once.
_BATCH_VALUES = 1 << 16


def _chunks(lengths: np.ndarray, hidden: int) -> list[np.ndarray]:
    """The sequence indices, sorted by ``lengths`` longest first (stably) and
    cut into runs whose padded slots (sequences times the first's length)
    times 4 * hidden stay within ``_BATCH_VALUES``.  A sequence over the
    budget on its own is a chunk of one.  Sorting keeps the padding of each
    chunk small."""
    order = np.argsort(-lengths, kind="stable")
    chunks, lo = [], 0
    while lo < len(order):
        size = max(1, _BATCH_VALUES // (int(lengths[order[lo]]) * 4 * hidden))
        chunks.append(order[lo : lo + size])
        lo += size
    return chunks


def _chunked(node, rows: np.ndarray, lengths: np.ndarray, hidden: int):
    """Run ``node`` (``_word_vectors`` or ``_sentence_states``) over packed
    ``rows``, sequences of ``lengths`` one after another, one node per
    ``_chunks`` chunk.  Yields each chunk, the indices of its rows in
    ``rows`` (in chunk order) and the node's value, so the caller writes it
    back in input order: by chunk for one row per sequence, by those indices
    for one row per step."""
    starts = np.cumsum(lengths) - lengths
    for chunk in _chunks(lengths, hidden):
        runs = lengths[chunk]
        at = np.repeat(starts[chunk] - (np.cumsum(runs) - runs), runs) + np.arange(runs.sum())
        yield chunk, at, node(rows[at], dc.ScanLayout(runs)).value


def predict(params: HierParams, docs: Corpus | Sequence[Manifesto]) -> list[DocPrediction]:
    """Score documents, in input order.

    Both LSTM levels run over all of the documents at once in length-sorted
    ``_chunks``: the word level over every sentence, the sentence level (and
    ``_heads`` after it) over every document, so a sequence is padded only
    to the longest of its chunk.
    """
    manifestos = docs.manifestos if isinstance(docs, Corpus) else tuple(docs)
    if not manifestos:
        return []
    config, store, scheme = params.config, params.store, params.scheme
    ids, lengths = _token_ids(params.vocab, manifestos)
    vectors = np.empty((len(lengths), 2 * config.word_hidden))
    for chunk, _, value in _chunked(partial(_word_vectors, params), ids,
                                    np.array(lengths, dtype=np.intp), config.word_hidden):
        vectors[chunk] = value

    def sentence_level(x, layout):
        return _sentence_states(params, dc.constant(x), layout)

    counts = np.array([len(m.sentences) for m in manifestos], dtype=np.intp)
    codes = np.empty(len(lengths), dtype=np.intp)
    pols = np.empty(len(lengths), dtype=np.intp)
    doc_vectors = np.empty((len(manifestos), len(scheme.codes) + 2 * config.sentence_hidden))
    scores = np.empty(len(manifestos))
    for chunk, at, states in _chunked(sentence_level, vectors, counts, config.sentence_hidden):
        code, pol, doc_vectors[chunk], scores[chunk] = _heads(store, states, counts[chunk])
        codes[at], pols[at] = np.argmax(code.probs, axis=1), np.argmax(pol.probs, axis=1)
    bounds = np.cumsum(counts) - counts
    return [
        DocPrediction(
            manifesto_id=manifesto.id,
            rile_hat=float(rile),
            codes=tuple(scheme.codes[k] for k in codes[lo:lo + n]),
            polarities=tuple(POLARITY_ORDER[k] for k in pols[lo:lo + n]),
            doc_vector=vector.copy(),
        )
        for manifesto, lo, n, vector, rile in zip(manifestos, bounds, counts, doc_vectors, scores)
    ]


def save_checkpoint(params: HierParams, path) -> None:
    """PSCL2 container: magic, one-line JSON manifest, raw float64 tensors.

    Each LSTM direction is two tensors, ``<prefix>.weight`` and
    ``<prefix>.bias``; PSCL1 stored twelve gate pieces instead.
    """
    path = Path(path)
    names = params.store.names
    manifest = {
        "format": "PSCL2",
        "config": asdict(params.config),
        "scheme": {
            "codes": list(params.scheme.codes),
            "categories": dict(params.scheme.categories),
            "polarities": {c: p.value for c, p in params.scheme.polarities.items()},
        },
        "vocab": list(params.vocab.tokens),
        "tensors": [[name, list(params.store[name].value.shape)] for name in names],
        "frozen_embed": (
            list(params.frozen_embed.shape) if params.frozen_embed is not None else None
        ),
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for name in names:
            fh.write(np.ascontiguousarray(params.store[name].value, dtype="<f8").tobytes())
        if params.frozen_embed is not None:
            fh.write(np.ascontiguousarray(params.frozen_embed, dtype="<f8").tobytes())


def load_checkpoint(path) -> HierParams:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic == b"PSCL1\n":
            raise ValueError(f"{path} is a PSCL1 checkpoint, whose LSTM layout of twelve "
                             "gate tensors per direction is no longer read; retrain the "
                             "model to write a PSCL2 checkpoint")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a model checkpoint")
        manifest = json.loads(fh.readline().decode("utf-8"))
        config = ModelConfig(**manifest["config"])
        scheme = LabelScheme(
            codes=tuple(manifest["scheme"]["codes"]),
            categories=manifest["scheme"]["categories"],
            polarities={
                c: Polarity(p) for c, p in manifest["scheme"]["polarities"].items()
            },
        )
        vocab = Vocabulary.from_tokens(manifest["vocab"])
        store = dc.ParameterStore()
        for name, shape in manifest["tensors"]:
            store.add(name, _read_array(fh, shape, path))
        frozen = None
        if manifest["frozen_embed"] is not None:
            frozen = _read_array(fh, manifest["frozen_embed"], path)
        if fh.read(1):
            raise ValueError(f"{path} has trailing bytes after the last tensor")
    return HierParams(store, vocab, config, scheme, frozen)


def _read_array(fh, shape, path) -> np.ndarray:
    count = int(np.prod(shape)) if shape else 1
    buf = fh.read(count * 8)
    if len(buf) != count * 8:
        raise ValueError(f"{path} is truncated")
    return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
