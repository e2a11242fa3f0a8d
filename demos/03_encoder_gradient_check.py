"""Train the hierarchical encoder on a planted corpus and verify gradients.

The model is a word-level bi-LSTM feeding a sentence-level bi-LSTM, with a
57-way code head and a 3-way polarity head per sentence plus a document
regression head.  Every gradient flows through a hand-built reverse-mode
tape, so the first section checks a few parameter groups against central
finite differences before any training happens.
"""

import time

import numpy as np

import polyscale.diffcore as dc
from polyscale.hiermodel import ModelConfig, document_loss, predict, train
from polyscale.synthetic import make_planted_corpus

planted = make_planted_corpus(seed=5, n_countries=2, parties_per_country=2,
                              n_elections=2, annotated_fraction=1.0,
                              sentences_per_doc=(3, 5))
corpus = planted.corpus
print(f"corpus: {len(corpus.manifestos)} documents, "
      f"{sum(len(m.sentences) for m in corpus.manifestos)} sentences")

config = ModelConfig(embed_dim=8, word_hidden=8, sentence_hidden=8,
                     epochs=0, vocab_cap=200, seed=1)
params, _ = train(corpus, config)
docs = corpus.manifestos[:2]


def loss_fn():
    total = None
    for doc in docs:
        loss, _ = document_loss(params, doc)
        total = loss if total is None else dc.add(total, loss)
    return total


# Spot-check three parameter groups; the full sweep over every coordinate
# is what the test suite does.
groups = ["word_fwd.weight", "sent_bwd.weight", "code_head.weight"]
groups = [g for g in groups if g in params.store.names] or params.store.names[:3]
start = time.perf_counter()
worst = dc.check_gradients(loss_fn, params.store, epsilon=3e-3, names=groups)
print(f"\ngradient check on {groups}:")
print(f"  max relative error {worst:.2e} in {time.perf_counter() - start:.1f}s")

# Now train for real and watch the multi-task loss come down.
config = ModelConfig(embed_dim=12, word_hidden=10, sentence_hidden=10,
                     epochs=10, learning_rate=3e-3, seed=1)
params, logs = train(corpus, config)
print("\nepoch  mean_loss  components")
for log in logs:
    parts = "  ".join(f"{k}={v:.3f}" for k, v in sorted(log.components.items()))
    print(f"{log.epoch:>5}  {log.mean_loss:>9.4f}  {parts}")

preds = predict(params, corpus.manifestos)
gold = np.array([m.rile_gold for m in corpus.manifestos])
hat = np.array([p.rile_hat for p in preds])
print(f"\ntraining-set fit: corr(rile_hat, rile_gold) = "
      f"{np.corrcoef(hat, gold)[0, 1]:.3f}")
