"""Spans around calls into polyscale's public functions, taken from outside.

The package is not edited.  ``Tracer.install`` replaces each measured
function at the place its callers look it up (``evaluation.train``,
``calibration.ground``, ``diffcore.Adam.step``, ...) with a wrapper that
records a span, and ``Tracer.uninstall`` puts the originals back.

Coarse calls (train, predict, build_database, calibrate, ground, MAP,
stacked estimates, load_corpus, run_experiment) are a handful per
operation and always recorded: the untraced run needs their durations for
its token rates and their counts for the determinism check.  Per-document
calls (document_loss, backward, the Adam step, the vocabulary build) are
recorded only while ``fine`` is on, which is what a traced operation means.

Spans stay in memory and are written out once, when the run ends.  Work the
tracer does for itself inside an open span (counting tokens, walking the
tape) is measured and subtracted from every open span, so it never shows up
as time of the layer being measured.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str  # "<module>.<function>" of the measured function
    site: str  # module the caller looked the function up in
    layer: str  # polyscale module the function belongs to
    op: int  # operation index; -1 during set-up
    parent: int  # index into Tracer.spans, -1 at top level
    start: float
    end: float = 0.0
    children: float = 0.0  # seconds covered by direct children
    excluded: float = 0.0  # tracer bookkeeping inside the span
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded

    @property
    def self_time(self) -> float:
        return self.duration - self.children

    def to_json(self) -> dict:
        return {
            "name": self.name, "site": self.site, "layer": self.layer,
            "op": self.op, "parent": self.parent, "start": self.start,
            "end": self.end, "excluded": self.excluded,
            "self": self.self_time, "info": self.info,
        }


def manifesto_tokens(manifesto) -> int:
    return sum(len(s.tokens) for s in manifesto.sentences)


def tape_size(root) -> int:
    """Distinct tape nodes reachable from ``root`` through ``parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.fine = False
        self.op = -1
        self.spans: list[Span] = []
        self.last: dict = {}  # small results the workloads check afterwards
        self._stack: list[Span] = []
        self._parents: list[int] = []  # indices of the open spans
        self._installed: list[tuple] = []

    def begin_op(self, op: int, fine: bool) -> None:
        self.op = op
        self.fine = fine

    def exclude(self, seconds: float) -> None:
        for span in self._stack:
            span.excluded += seconds

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    # -- wrapping ----------------------------------------------------------

    def _call(self, name, site, layer, fn, args, kwargs, before, after):
        t0 = time.perf_counter()
        info = before(*args, **kwargs) if before else {}
        parent = self._stack[-1] if self._stack else None
        span = Span(name, site, layer, self.op,
                    self._parents[-1] if self._parents else -1, 0.0, info=info)
        self._parents.append(len(self.spans))
        self.spans.append(span)
        self.exclude(time.perf_counter() - t0)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.info["ok"] = False
            span.info["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._parents.pop()
            if parent is not None:
                parent.children += span.duration
        t0 = time.perf_counter()
        span.info.setdefault("ok", True)
        if after:
            after(self, span, result, *args, **kwargs)
        self.exclude(time.perf_counter() - t0)
        return result

    def _wrap(self, fn, name, site, layer, fine, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fine and not tracer.fine:
                return fn(*args, **kwargs)
            return tracer._call(name, site, layer, fn, args, kwargs, before, after)

        return wrapper

    def install(self) -> None:
        from polyscale import calibration, diffcore, evaluation, hiermodel

        for owner, attr, name, layer, fine, before, after in _targets(
            calibration, diffcore, evaluation, hiermodel
        ):
            raw = owner.__dict__[attr]
            site = owner.__name__.rsplit(".", 1)[-1]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, site, layer,
                                             fine, before, after))
            else:
                new = self._wrap(raw, name, site, layer, fine, before, after)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


# -- hooks: counts taken at the layer boundary, outside the timed interval --


def _train_before(corpus, config=None, *args, **kwargs):
    from polyscale import hiermodel

    epochs = (config or hiermodel.ModelConfig()).epochs
    docs = hiermodel.training_documents(corpus)
    return {"tokens": epochs * sum(manifesto_tokens(d) for d in docs)}


def _train_after(tracer, span, result, *args, **kwargs):
    _, logs = result
    span.info["ok"] = all(math.isfinite(entry.mean_loss) for entry in logs)


def _predict_before(params, docs):
    manifestos = getattr(docs, "manifestos", docs)
    return {"tokens": sum(manifesto_tokens(m) for m in manifestos)}


def _predict_after(tracer, span, result, *args, **kwargs):
    span.info["ok"] = all(
        math.isfinite(p.rile_hat) and np.all(np.isfinite(p.doc_vector))
        for p in result
    )
    tracer.last[f"{span.site}.predict"] = {p.manifesto_id: p.rile_hat for p in result}


def _loss_before(params, manifesto, config=None):
    return {"tokens": manifesto_tokens(manifesto)}


def _loss_after(tracer, span, result, *args, **kwargs):
    loss, _ = result
    span.info["tape_nodes"] = tape_size(loss)
    span.info["ok"] = bool(np.isfinite(loss.value))


def _ground_after(tracer, span, network, *args, **kwargs):
    span.info["rows"] = len(network.rules)
    span.info["free_atoms"] = len(network.free_atoms)
    tracer.last["ground_rows"] = len(network.rules)


def _map_after(tracer, span, result, *args, **kwargs):
    span.info["iterations"] = result.iterations
    span.info["converged"] = bool(result.converged)
    span.info["ok"] = bool(result.converged) and bool(np.all(np.isfinite(result.values)))


def _db_after(tracer, span, db, *args, **kwargs):
    span.info["atoms"] = len(db.observations) + len(db.targets)


def _calibrate_after(tracer, span, result, db, program=None, *args, **kwargs):
    from polyscale import calibration

    span.info["ok"] = result.map_result.converged and all(
        math.isfinite(v) for v in result.rile.values()
    )
    # MAP may never end above the energy of the point it started from
    network = result.network
    span.info["energy_ok"] = bool(
        result.map_result.energy
        <= network.energy(np.clip(network.initial, 0.0, 1.0)) + 1e-9
    )
    tracer.last[f"{span.site}.calibrate"] = dict(result.rile)
    if span.op == 0:  # the same database in every run with this seed
        tracer.last["grounded"] = (
            db, program or calibration.default_program(), tracer.last["ground_rows"]
        )


def _targets(calibration, diffcore, evaluation, hiermodel):
    """(owner, attribute, span name, layer, fine, before, after) per lookup site."""
    coarse = []
    for site in (hiermodel, evaluation, calibration):
        coarse.append((site, "train", "hiermodel.train", "hiermodel",
                       _train_before, _train_after))
        coarse.append((site, "predict", "hiermodel.predict", "hiermodel",
                       _predict_before, _predict_after))
    for site in (calibration, evaluation):
        coarse.append((site, "build_database", "calibration.build_database",
                       "calibration", None, _db_after))
        coarse.append((site, "calibrate", "calibration.calibrate", "calibration",
                       None, _calibrate_after))
    coarse += [
        (calibration, "ground", "pslengine.ground", "pslengine", None, _ground_after),
        (calibration, "map_inference", "pslengine.map_inference", "pslengine",
         None, _map_after),
        (evaluation, "stacked_estimates", "calibration.stacked_estimates",
         "calibration", None, None),
        (evaluation, "load_corpus", "corpus.load_corpus", "corpus", None, None),
        (evaluation, "run_experiment", "evaluation.run_experiment", "evaluation",
         None, None),
    ]
    fine = [
        (hiermodel, "document_loss", "hiermodel.document_loss", "hiermodel",
         _loss_before, _loss_after),
        (hiermodel.Vocabulary, "build", "hiermodel.Vocabulary.build", "hiermodel",
         None, None),
        (diffcore, "backward", "diffcore.backward", "diffcore", None, None),
        (diffcore.Adam, "step", "diffcore.Adam.step", "diffcore", None, None),
    ]
    return [(o, a, n, l, False, b, f) for o, a, n, l, b, f in coarse] + [
        (o, a, n, l, True, b, f) for o, a, n, l, b, f in fine
    ]
