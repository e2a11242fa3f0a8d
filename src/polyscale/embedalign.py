"""Cross-lingual embedding alignment via orthogonal Procrustes.

Embedding files are text: an optional ``count dim`` header line, then one
``word v1 ... vd`` row per word (whitespace separated, so words cannot
contain spaces).  A bilingual lexicon is two tab-separated columns,
``source_word<TAB>english_word``.

Alignment solves ``min_W ||X W - Y||_F`` over orthogonal W, where X stacks
the source-language vectors of lexicon pairs and Y the English ones: with
M = X^T Y and SVD M = U S V^T, the minimizer is W = U V^T.  Singular-vector
signs are canonicalized (largest-magnitude entry of each left-singular
vector made positive) so identical inputs give bitwise-identical output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-6


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding or lexicon files."""


class EmbeddingTable:
    """Word -> row vector table with a fixed dimensionality."""

    def __init__(self, words: list[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or len(words) != matrix.shape[0]:
            raise ValueError("words and matrix rows must correspond")
        if len(set(words)) != len(words):
            raise ValueError("duplicate words in embedding table")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("embedding table contains non-finite values")
        self.words = list(words)
        self.matrix = matrix
        self.index = {w: i for i, w in enumerate(words)}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def vector(self, word: str) -> np.ndarray:
        try:
            return self.matrix[self.index[word]]
        except KeyError:
            raise KeyError(f"word {word!r} not in table") from None


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse a text embedding file; duplicate words keep the first row."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"embedding file not found: {path}")
    words: list[str] = []
    rows: list[np.ndarray] = []
    index: dict[str, int] = {}
    dim: int | None = None
    duplicates = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            word, values = parts[0], parts[1:]
            if not values:
                raise EmbeddingFormatError(f"{path}: line {lineno}: no vector values")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(values)}"
                )
            try:
                vec = np.array([float(v) for v in values])
            except ValueError as exc:
                raise EmbeddingFormatError(f"{path}: line {lineno}: {exc}") from None
            if word in index:
                duplicates += 1
                continue
            index[word] = len(words)
            words.append(word)
            rows.append(vec)
    if not words:
        raise EmbeddingFormatError(f"{path}: no embedding rows")
    if duplicates:
        log.warning("%s: %d duplicate words, kept first occurrence", path, duplicates)
    return EmbeddingTable(words, np.vstack(rows))


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in zip(table.words, table.matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")


@dataclass(frozen=True)
class BilingualLexicon:
    """Translation pairs (source word, English word)."""

    pairs: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def load_lexicon(path: str | Path) -> BilingualLexicon:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"lexicon file not found: {path}")
    pairs: list[tuple[str, str]] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: expected 'source<TAB>english'"
                )
            pairs.append((parts[0].strip(), parts[1].strip()))
    if not pairs:
        raise EmbeddingFormatError(f"{path}: lexicon is empty")
    return BilingualLexicon(tuple(pairs))


@dataclass(frozen=True)
class ProjectionMatrix:
    """Orthogonal map from a source space into the English space."""

    matrix: np.ndarray
    n_pairs_used: int
    n_pairs_dropped: int

    def __post_init__(self):
        check_orthogonal(self.matrix)


def check_orthogonal(w: np.ndarray) -> float:
    dev = float(np.abs(w.T @ w - np.eye(w.shape[1])).max())
    if dev > ORTHOGONALITY_TOL:
        raise ValueError(f"matrix is not orthogonal (max deviation {dev:.3e})")
    return dev


def _canonical_svd_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = u.copy()
    vt = vt.copy()
    for j in range(u.shape[1]):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return u, vt


def paired_rows(
    other: EmbeddingTable, english: EmbeddingTable, lexicon: BilingualLexicon
) -> tuple[np.ndarray, np.ndarray, int]:
    """Stacked (X, Y) over usable lexicon pairs plus the dropped count."""
    xs, ys = [], []
    dropped = 0
    for src, eng in lexicon.pairs:
        if src in other and eng in english:
            xs.append(other.vector(src))
            ys.append(english.vector(eng))
        else:
            dropped += 1
    if dropped:
        log.info("lexicon: dropped %d pairs missing from the tables", dropped)
    if not xs:
        raise ValueError("no usable lexicon pairs between the two tables")
    return np.vstack(xs), np.vstack(ys), dropped


def align(
    other: EmbeddingTable,
    english: EmbeddingTable,
    lexicon: BilingualLexicon,
    normalize: bool = False,
    center: bool = False,
) -> ProjectionMatrix:
    """Fit the orthogonal projection on lexicon pairs.

    ``normalize`` / ``center`` (off by default) transform the paired rows
    before the fit; the returned projection always applies to raw vectors.
    """
    if other.dim != english.dim:
        raise ValueError(f"dimension mismatch: {other.dim} vs {english.dim}")
    x, y, dropped = paired_rows(other, english, lexicon)
    if center:
        x = x - x.mean(axis=0)
        y = y - y.mean(axis=0)
    if normalize:
        x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
        y = y / np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-12)
    m = x.T @ y
    u, _, vt = np.linalg.svd(m)
    u, vt = _canonical_svd_signs(u, vt)
    w = u @ vt
    return ProjectionMatrix(matrix=w, n_pairs_used=x.shape[0], n_pairs_dropped=dropped)


def apply_projection(table: EmbeddingTable, projection: ProjectionMatrix) -> EmbeddingTable:
    w = projection.matrix if isinstance(projection, ProjectionMatrix) else projection
    if table.dim != w.shape[0]:
        raise ValueError(f"projection expects dim {w.shape[0]}, table has {table.dim}")
    return EmbeddingTable(list(table.words), table.matrix @ w)


def build_multilingual(
    tables: dict[str, EmbeddingTable],
    projections: dict[str, ProjectionMatrix],
    english_language: str = "en",
) -> EmbeddingTable:
    """Union table over ``language:word`` keys, all in the English space.

    Every non-English table must have a projection; the English table is
    taken as is (identity projection).
    """
    if english_language not in tables:
        raise ValueError(f"missing English table {english_language!r}")
    dims = {t.dim for t in tables.values()}
    if len(dims) != 1:
        raise ValueError(f"tables disagree on dimensionality: {sorted(dims)}")
    words: list[str] = []
    blocks: list[np.ndarray] = []
    for lang in tables:
        table = tables[lang]
        if lang == english_language:
            matrix = table.matrix
        else:
            if lang not in projections:
                raise ValueError(f"no projection for language {lang!r}")
            matrix = apply_projection(table, projections[lang]).matrix
        words.extend(f"{lang}:{w}" for w in table.words)
        blocks.append(matrix)
    return EmbeddingTable(words, np.vstack(blocks))
