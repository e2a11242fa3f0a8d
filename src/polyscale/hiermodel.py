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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

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
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("beta and gamma must be nonnegative")
        for name in ("embed_dim", "word_hidden", "sentence_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.vocab_cap < 1:
            raise ValueError("vocab_cap must be positive")


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


def _encode_sentences(params: HierParams, manifestos: Sequence[Manifesto]) -> dc.Tensor:
    """Sentence states of a batch of documents, (sentences, 2 * sentence_hidden).

    Rows run through the documents in order, each document's sentences in
    order.  The word level is one LSTM node per direction over every sentence
    of the batch, padded to the longest one.  The sentence level is one node
    per direction over the documents, padded to the most sentences; a batch
    of one document runs it over that document's sentences unpadded.
    """
    store = params.store
    sentences = [(m.language, s) for m in manifestos for s in m.sentences]
    lengths = [len(s.tokens) for _, s in sentences]
    ids = np.zeros((len(sentences), max(lengths)), dtype=np.intp)
    for row, (language, sentence) in zip(ids, sentences):
        row[: len(sentence.tokens)] = [
            params.vocab.id_of(language, tok) for tok in sentence.tokens
        ]
    words = dc.gather(params.embedding_tensor(), ids)

    def lstm(prefix):
        return store[f"{prefix}.weight"], store[f"{prefix}.bias"]

    _, sentence_vectors = dc.bilstm_batch(words, lstm("word_fwd"), lstm("word_bwd"), lengths)
    if len(manifestos) == 1:
        states, _ = dc.bilstm_batch(sentence_vectors, lstm("sent_fwd"), lstm("sent_bwd"))
        return states
    counts = np.array([len(m.sentences) for m in manifestos])
    slots = np.arange(counts.max())
    real = slots < counts[:, None]  # (documents, most sentences)
    starts = np.cumsum(counts) - counts
    # padded slots read row 0; the LSTM carries each document's state over them
    padded = dc.gather(sentence_vectors, np.where(real, starts[:, None] + slots, 0))
    states, _ = dc.bilstm_batch(padded, lstm("sent_fwd"), lstm("sent_bwd"), counts)
    flat = dc.reshape(states, (-1, states.value.shape[-1]))
    return dc.gather(flat, np.flatnonzero(real))


def _forward(params: HierParams, manifestos: Sequence[Manifesto], code_gold, pol_gold):
    """The model over a batch of documents as one tape: ``document_loss``
    runs it on one document, ``predict`` on a batch.

    ``code_gold`` and ``pol_gold`` give each sentence's class index, -1 when
    unlabeled.  Returns the code and polarity distributions (one row per
    sentence), the sentence and polarity losses (mean cross-entropies over
    the labeled sentences, None without any), and per document the mean
    [code probabilities; state] row and the score.  The document head is
    three tape nodes for any number of documents.
    """
    store = params.store
    states = _encode_sentences(params, manifestos)
    code_logits = dc.dense(states, store["code_head.weight"], store["code_head.bias"])
    pol_logits = dc.dense(states, store["pol_head.weight"], store["pol_head.bias"])
    code_probs, sentence_loss = dc.softmax_xent_rows(code_logits, code_gold)
    pol_probs, polarity_loss = dc.softmax_xent_rows(pol_logits, pol_gold)
    doc_vectors = dc.segment_mean(dc.concat([code_probs, states]),
                                  [len(m.sentences) for m in manifestos])
    scores = dc.tanh(dc.dense(doc_vectors, store["doc_head.weight"], store["doc_head.bias"]))
    return code_probs, pol_probs, sentence_loss, polarity_loss, doc_vectors, scores


def combine_losses(l_sentence, l_doc, l_polarity, l_structure,
                   alpha: float, beta: float, gamma: float) -> dc.Tensor:
    """Weighted sum that skips absent components and zero coefficients.

    With alpha=1 and beta=gamma=0 the result's value is bitwise equal to
    the sentence loss alone.
    """
    terms = []
    if l_sentence is not None and alpha != 0.0:
        terms.append(dc.scale(l_sentence, alpha))
    if l_doc is not None and 1.0 - alpha != 0.0:
        terms.append(dc.scale(l_doc, 1.0 - alpha))
    if l_polarity is not None and beta != 0.0:
        terms.append(dc.scale(l_polarity, beta))
    if l_structure is not None and gamma != 0.0:
        terms.append(dc.scale(l_structure, gamma))
    if not terms:
        raise ValueError("no loss components to combine")
    total = terms[0]
    for term in terms[1:]:
        total = dc.add(total, term)
    return total


def document_loss(
    params: HierParams, manifesto: Manifesto, config: ModelConfig | None = None
) -> tuple[dc.Tensor, dict]:
    """Total loss tensor for one document plus per-component values."""
    config = config or params.config
    scheme = params.scheme
    codes = [s.gold_code for s in manifesto.sentences]
    code_gold = [-1 if c is None else scheme.index(c) for c in codes]
    pol_gold = [-1 if c is None else POLARITY_ORDER.index(scheme.polarity_of(c)) for c in codes]
    _, pol_probs, l_sentence, l_polarity, _, score = _forward(
        params, [manifesto], code_gold, pol_gold)
    target = effective_rile(manifesto, scheme)
    l_doc = None
    l_structure = None
    if target is not None:
        l_doc = dc.square(dc.sub(dc.reshape(score, ()), dc.constant(target)))
        margins = dc.matmul(pol_probs, dc.constant(_STRUC_SIGNS))
        l_structure = dc.square(dc.sub(dc.mean_rows(margins), dc.constant(target)))
    total = combine_losses(l_sentence, l_doc, l_polarity, l_structure,
                           config.alpha, config.beta, config.gamma)
    parts = {
        name: float(t.value)
        for name, t in (
            ("sentence", l_sentence), ("doc", l_doc),
            ("polarity", l_polarity), ("structure", l_structure),
        )
        if t is not None
    }
    return total, parts


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    mean_loss: float
    components: dict


def train(
    corpus: Corpus,
    config: ModelConfig | None = None,
    embeddings: EmbeddingTable | None = None,
    trace: Callable[[EpochLog], None] | None = None,
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
        total = 0.0
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
            optimizer.step()
            total += float(loss.value)
            for name, value in parts.items():
                sums[name] = sums.get(name, 0.0) + value
                counts[name] = counts.get(name, 0) + 1
        entry = EpochLog(
            epoch=epoch,
            mean_loss=total / len(docs),
            components={name: sums[name] / counts[name] for name in sums},
        )
        logs.append(entry)
        log.info("epoch %d mean loss %.6f", entry.epoch, entry.mean_loss)
        if trace is not None:
            trace(entry)
    return params, logs


@dataclass(frozen=True)
class DocPrediction:
    manifesto_id: str
    rile_hat: float
    codes: tuple[str, ...]
    polarities: tuple[Polarity, ...]
    doc_vector: np.ndarray


# Values in the word-level gate array of one predict batch (~512 KB): padded
# word slots times 4 * word_hidden.  Larger batches add little speed and
# hold more memory at once.
_BATCH_VALUES = 1 << 16


def _predict_batches(manifestos: Sequence[Manifesto], word_hidden: int) -> list[list[Manifesto]]:
    """Consecutive runs of documents whose padded word slots (sentences times
    the longest sentence) times 4 * word_hidden stay within ``_BATCH_VALUES``.
    A document over the budget on its own is a batch of one."""
    batches: list[list[Manifesto]] = []
    rows = longest = 0
    for manifesto in manifestos:
        n = len(manifesto.sentences)
        width = max(len(s.tokens) for s in manifesto.sentences)
        if batches and (rows + n) * max(longest, width) * 4 * word_hidden <= _BATCH_VALUES:
            batches[-1].append(manifesto)
            rows, longest = rows + n, max(longest, width)
        else:
            batches.append([manifesto])
            rows, longest = n, width
    return batches


def predict(params: HierParams, docs: Corpus | Sequence[Manifesto]) -> list[DocPrediction]:
    """Score documents in batches (see ``_predict_batches``), in input order."""
    manifestos = docs.manifestos if isinstance(docs, Corpus) else tuple(docs)
    out: list[DocPrediction] = []
    for batch in _predict_batches(manifestos, params.config.word_hidden):
        out += _predict_batch(params, batch)
    return out


def _predict_batch(params: HierParams, batch: Sequence[Manifesto]) -> list[DocPrediction]:
    """``_forward`` over the batch, unlabeled; its tape is freed on return,
    before the next batch is built."""
    scheme = params.scheme
    bounds = np.cumsum([0] + [len(m.sentences) for m in batch])
    unlabeled = np.full(bounds[-1], -1)
    code_probs, pol_probs, _, _, doc_vectors, scores = _forward(
        params, batch, unlabeled, unlabeled)
    codes = np.argmax(code_probs.value, axis=1)
    pols = np.argmax(pol_probs.value, axis=1)
    return [
        DocPrediction(
            manifesto_id=manifesto.id,
            rile_hat=float(rile),
            codes=tuple(scheme.codes[k] for k in codes[lo:hi]),
            polarities=tuple(POLARITY_ORDER[k] for k in pols[lo:hi]),
            doc_vector=vector.copy(),
        )
        for manifesto, lo, hi, vector, rile in zip(
            batch, bounds, bounds[1:], doc_vectors.value, scores.value)
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
