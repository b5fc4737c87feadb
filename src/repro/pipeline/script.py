"""The per-script pipeline prefix: extract → embed → keep the top-k paths.

Every script passes through the same fixed prefix before the batch stages
(Fig. 1, Table VIII): parse + enhanced AST + bounded path contexts, the
attention embedding of those paths, then the ``max_paths_per_script`` cap
that keeps the highest-attention rows.  :class:`ScriptPipeline` is that
prefix, once: the detector runs it in-process (``fit``, ``features_for``,
sequential scans) and every :class:`~repro.faults.IsolatedPool` worker
rebuilds one from :meth:`ScriptPipeline.to_init` and runs it per task, so
pooled and in-process verdicts are byte-identical by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.embedding import PathEmbedder
from repro.jsparser import JSSyntaxError
from repro.paths import ExtractionError, PathContext, PathExtractor

from .cache import CacheEntry
from .results import STATUS_OK, STATUS_PARSE_ERROR


@dataclass
class ScriptEmbedding:
    """What the per-script prefix made of one source."""

    vectors: np.ndarray  # (n_kept, embed_dim) FC-layer outputs
    weights: np.ndarray  # (n_kept,) attention weights
    #: The kept path contexts, row-aligned with ``vectors``.  ``None`` when
    #: a pool worker did not ship them back (only traced tasks need them).
    contexts: list[PathContext] | None
    path_count: int  # contexts extracted before the cap
    status: str  # STATUS_OK or STATUS_PARSE_ERROR
    extract_ms: float
    embed_ms: float

    @property
    def entry(self) -> CacheEntry:
        return CacheEntry(vectors=self.vectors, weights=self.weights, path_count=self.path_count)

    def top_paths(self, k: int = 5) -> list[dict] | None:
        """The ``k`` highest-attention paths as JSON-ready provenance."""
        if self.contexts is None:
            return None
        order = np.argsort(np.asarray(self.weights, dtype=float))[::-1][:k]
        return [
            {"path": self.contexts[int(i)].signature(), "weight": round(float(self.weights[int(i)]), 6)}
            for i in order
        ]


class ScriptPipeline:
    """Pure source → :class:`ScriptEmbedding` mapping over a trained embedder.

    Holds no state of its own beyond references to the extractor, the
    embedder and the path cap, so building one is free.
    """

    def __init__(self, extractor: PathExtractor, embedder: PathEmbedder, max_paths: int):
        self.extractor = extractor
        self.embedder = embedder
        self.max_paths = max_paths

    def to_init(self) -> dict:
        """Picklable configuration + frozen tensors for :meth:`from_init`."""
        extractor = self.extractor
        return {
            "extractor_kwargs": {
                "max_length": extractor.max_length,
                "max_width": extractor.max_width,
                "use_dataflow": extractor.use_dataflow,
            },
            "embed_dim": self.embedder.model.embed_dim,
            "parameters": {
                name: np.ascontiguousarray(tensor)
                for name, tensor in self.embedder.model.parameters().items()
            },
            "max_paths": self.max_paths,
        }

    @classmethod
    def from_init(cls, init: dict) -> "ScriptPipeline":
        embedder = PathEmbedder(embed_dim=init["embed_dim"])
        embedder.model.load_parameters(init["parameters"])
        embedder._trained = True
        return cls(PathExtractor(**init["extractor_kwargs"]), embedder, init["max_paths"])

    def extract(self, source: str) -> tuple[list[PathContext], str]:
        """Stage 1; unparseable or too-deep sources yield no paths."""
        try:
            return self.extractor.extract_from_source(source), STATUS_OK
        except (JSSyntaxError, ExtractionError, RecursionError):
            return [], STATUS_PARSE_ERROR

    def embed(self, contexts: list[PathContext]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stage 2 plus the cap: vectors, weights, and kept row indices."""
        vectors, weights = self.embedder.embed(contexts)
        kept = np.arange(len(vectors))
        if len(vectors) > self.max_paths:
            kept = np.argsort(weights)[::-1][: self.max_paths]
            vectors, weights = vectors[kept], weights[kept]
        return vectors, weights, kept

    def run(self, source: str) -> ScriptEmbedding:
        started = time.perf_counter()
        contexts, status = self.extract(source)
        extracted = time.perf_counter()
        vectors, weights, kept = self.embed(contexts)
        return ScriptEmbedding(
            vectors=vectors,
            weights=weights,
            contexts=[contexts[int(i)] for i in kept],
            path_count=len(contexts),
            status=status,
            extract_ms=1000.0 * (extracted - started),
            embed_ms=1000.0 * (time.perf_counter() - extracted),
        )
