"""The model's heads and losses composed from per-op tape nodes.

``hiermodel`` runs a document's three heads and four losses as one tape node
(``_head_loss``) and computes the head values of ``predict`` without a tape
(``_heads``).  This is the composition they replace, one op node per step:
``dense`` per head, ``softmax_xent_rows``, ``concat`` and ``segment_mean``
for the document vector, ``dense`` and ``tanh`` for the score, and the
squared errors and weighted sum of the losses.  Values and gradients of the
fused paths must equal it bit for bit.  ``document_loss`` puts it on the
per-direction LSTM nodes of ``reference_lstm``, so a whole training step can
be built without ``hiermodel``'s encoder.
"""

from __future__ import annotations

import numpy as np

import reference_ops as ops
from polyscale import diffcore as dc
from polyscale import hiermodel as hm
from reference_lstm import bilstm_pair


def heads(store, states: dc.Tensor, counts, code_gold, pol_gold):
    """The heads over a batch of documents' sentence ``states``, with
    ``counts`` sentences each.

    ``code_gold`` and ``pol_gold`` give each sentence's class index, -1 when
    unlabeled.  Returns the code and polarity distributions, the sentence and
    polarity losses (None without labeled rows), and per document the mean
    [code probabilities; state] row and the score.
    """
    code_logits = ops.dense(states, store["code_head.weight"], store["code_head.bias"])
    pol_logits = ops.dense(states, store["pol_head.weight"], store["pol_head.bias"])
    code_probs, sentence_loss = ops.softmax_xent_rows(code_logits, code_gold)
    pol_probs, polarity_loss = ops.softmax_xent_rows(pol_logits, pol_gold)
    doc_vectors = ops.segment_mean(ops.concat([code_probs, states]), counts)
    scores = ops.tanh(ops.dense(doc_vectors, store["doc_head.weight"], store["doc_head.bias"]))
    return code_probs, pol_probs, sentence_loss, polarity_loss, doc_vectors, scores


def combine_losses(l_sentence, l_doc, l_polarity, l_structure,
                   alpha: float, beta: float, gamma: float) -> dc.Tensor:
    """Weighted sum that skips absent components and zero coefficients.

    With alpha=1 and beta=gamma=0 the result's value is bitwise equal to
    the sentence loss alone.
    """
    terms = []
    if l_sentence is not None and alpha != 0.0:
        terms.append(ops.scale(l_sentence, alpha))
    if l_doc is not None and 1.0 - alpha != 0.0:
        terms.append(ops.scale(l_doc, 1.0 - alpha))
    if l_polarity is not None and beta != 0.0:
        terms.append(ops.scale(l_polarity, beta))
    if l_structure is not None and gamma != 0.0:
        terms.append(ops.scale(l_structure, gamma))
    if not terms:
        raise ValueError("no loss components to combine")
    total = terms[0]
    for term in terms[1:]:
        total = ops.add(total, term)
    return total


def head_loss(store, states: dc.Tensor, code_gold, pol_gold, target, config):
    """``hiermodel._head_loss`` as a tape of op nodes: the total loss and its
    components."""
    _, pol_probs, l_sentence, l_polarity, _, score = heads(
        store, states, [states.value.shape[0]], code_gold, pol_gold)
    l_doc = None
    l_structure = None
    if target is not None:
        l_doc = ops.square(ops.sub(ops.reshape(score, ()), dc.constant(target)))
        margins = ops.dense(pol_probs, dc.constant(hm._STRUC_SIGNS), dc.constant(0.0))
        l_structure = ops.square(ops.sub(ops.mean_rows(margins), dc.constant(target)))
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


def encode(params, manifesto) -> dc.Tensor:
    """One document's sentence states from ``reference_lstm.bilstm_pair`` at
    both levels: the word level over its sentences padded to the longest
    (padded steps read row 0 of the embeddings), the sentence level over its
    sentence vectors as a batch of one."""
    store = params.store

    def lstm(prefix):
        return store[f"{prefix}.weight"], store[f"{prefix}.bias"]

    ids, lengths = hm._token_ids(params.vocab, [manifesto])
    real = np.arange(max(lengths)) < np.array(lengths)[:, None]
    padded = np.zeros(real.shape, dtype=np.intp)
    padded[real] = ids
    words = dc.gather(params.embedding_tensor(), padded)
    _, vectors = bilstm_pair(words, lstm("word_fwd"), lstm("word_bwd"), lengths)
    count = len(lengths)
    states, _ = bilstm_pair(ops.reshape(vectors, (1, count, -1)), lstm("sent_fwd"),
                            lstm("sent_bwd"))
    return ops.reshape(states, (count, -1))


def document_loss(params, manifesto, config=None):
    """``hiermodel.document_loss`` from the reference paths alone: ``encode``
    and the composed ``head_loss``."""
    config = config or params.config
    scheme = params.scheme
    codes = [s.gold_code for s in manifesto.sentences]
    code_gold = [-1 if c is None else scheme.index(c) for c in codes]
    pol_gold = [-1 if c is None else hm.POLARITY_ORDER.index(scheme.polarity_of(c))
                for c in codes]
    return head_loss(params.store, encode(params, manifesto), code_gold, pol_gold,
                     hm.effective_rile(manifesto, scheme), config)
