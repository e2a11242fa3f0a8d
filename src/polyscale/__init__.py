"""Multilingual manifesto scaling.

Two stages: a hierarchical multi-task sentence/document model scores each
manifesto on the left-right axis, then a hinge-loss soft-logic engine
calibrates those scores against party-level relational structure.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    LabelScheme,
    Manifesto,
    Polarity,
    Sentence,
    compute_rile,
    load_corpus,
    save_corpus,
    segment,
    tokenize,
)
from .embedalign import (
    BilingualLexicon,
    EmbeddingTable,
    ProjectionMatrix,
    align,
    apply_projection,
    build_multilingual,
    load_embeddings,
    load_lexicon,
    save_embeddings,
)
from .hiermodel import (
    ModelConfig,
    Vocabulary,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .pslengine import (
    GroundNetwork,
    MapResult,
    PslProgram,
    RelationalDatabase,
    SolverConfig,
    ground,
    load_program,
    map_inference,
    parse_program,
    print_program,
)
from .calibration import (
    CalibrationConfig,
    CalibrationResult,
    PartyGraph,
    build_database,
    calibrate,
    default_program,
    save_party_graph,
    stacked_estimates,
)
from .evaluation import (
    ExperimentResult,
    SplitSpec,
    make_split,
    micro_f,
    pearson,
    run_experiment,
    spearman,
)
from .synthetic import PlantedCorpus, make_planted_corpus

__all__ = [
    "BilingualLexicon",
    "CalibrationConfig",
    "CalibrationResult",
    "Corpus",
    "EmbeddingTable",
    "ExperimentResult",
    "GroundNetwork",
    "LabelScheme",
    "Manifesto",
    "MapResult",
    "ModelConfig",
    "PartyGraph",
    "PlantedCorpus",
    "Polarity",
    "ProjectionMatrix",
    "PslProgram",
    "RelationalDatabase",
    "Sentence",
    "SolverConfig",
    "SplitSpec",
    "Vocabulary",
    "align",
    "apply_projection",
    "build_database",
    "build_multilingual",
    "calibrate",
    "compute_rile",
    "default_program",
    "ground",
    "load_checkpoint",
    "load_corpus",
    "load_embeddings",
    "load_lexicon",
    "load_program",
    "make_planted_corpus",
    "make_split",
    "map_inference",
    "micro_f",
    "parse_program",
    "pearson",
    "predict",
    "print_program",
    "run_experiment",
    "save_checkpoint",
    "save_corpus",
    "save_embeddings",
    "save_party_graph",
    "segment",
    "spearman",
    "stacked_estimates",
    "tokenize",
    "train",
    "__version__",
]
