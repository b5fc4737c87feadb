"""Span recorder and layer tracer for the traced run.

The program is not edited to be traced.  :class:`LayerTracer` wraps each
layer's public function where the pipeline looks it up (a module global
or a class attribute), records one span per call in a
:class:`SpanRecorder`, and puts every original back on exit.  Spans stay
in memory; :func:`layer_totals` turns them into per-layer self times,
where a span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

#: The root span around each ``scan_batch`` call.
ROOT = "pipeline"
#: Work the benchmark itself adds (leaf counting); excluded from the
#: traced wall time and from every layer.
PROBE = "bench.probe"

#: Layers that run once per script, in pipeline order.
SCRIPT_LAYERS = (
    "deobfuscate",
    "analysis",
    "jsparser",
    "dataflow",
    "paths.enum",
    "paths.featurize",
    "embedding",
)
#: Layers that run once (or, for the classifier, a few times) per batch.
BATCH_LAYERS = ("core.features", "ml.classify")
LAYERS = SCRIPT_LAYERS + BATCH_LAYERS + (ROOT,)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    #: Index of the script in its batch, for per-script layers.
    script: int | None = None
    batch: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans with parent links, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.batch = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, script: int | None = None) -> Iterator[Span]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), float("nan"), parent, script, self.batch)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out


@dataclass
class LayerTotals:
    #: Layer -> summed self time, seconds.
    self_s: dict[str, float]
    #: Root durations minus probe time, seconds.
    wall_s: float
    probe_s: float


def layer_totals(spans: Sequence[Span]) -> LayerTotals:
    selfs = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    wall = probe = 0.0
    for span, own in zip(spans, selfs):
        if span.name == PROBE:
            probe += span.duration
        elif span.name in totals:
            totals[span.name] += own
        if span.name == ROOT and span.parent is None:
            wall += span.duration
    return LayerTotals(self_s=totals, wall_s=wall - probe, probe_s=probe)


def check_script_spans(
    spans: Sequence[Span], expected: Sequence[Sequence[str]]
) -> list[str]:
    """Problems with per-script spans; empty when every script is clean.

    ``expected[b]`` lists, for batch ``b``, the layers that must have run
    on each script as a ``"layer@script"`` set.  Every per-script layer
    span must name a script, and no script may have two spans of one
    layer or miss an expected one.
    """
    problems = []
    seen: Counter[tuple[int, int, str]] = Counter()
    for span in spans:
        if span.name not in SCRIPT_LAYERS:
            continue
        if span.script is None:
            problems.append(f"batch {span.batch}: {span.name} span outside any script")
            continue
        seen[(span.batch, span.script, span.name)] += 1
    for (batch, script, name), count in sorted(seen.items()):
        if count != 1:
            problems.append(f"batch {batch} script {script}: {count} {name} spans")
    for batch, wanted in enumerate(expected):
        for key in wanted:
            name, script = key.rsplit("@", 1)
            if seen[(batch, int(script), name)] == 0:
                problems.append(f"batch {batch} script {script}: no {name} span")
    return problems


# ------------------------------------------------------------------- tracer


def count_leaves(root) -> int:
    """Value-bearing leaves of an AST, by the public node interface."""
    from repro.jsparser import LEAF_TYPES

    n = 0
    stack = [root]
    while stack:
        node = stack.pop()
        children = list(node.children())
        if children:
            stack.extend(children)
        elif node.type in LEAF_TYPES:
            n += 1
    return n


class LayerTracer:
    """Wraps every layer's entry point with spans for one detector.

    Use :meth:`batch` around each ``scan_batch`` call: it opens the root
    span and tells the tracer the batch's sources, so per-script spans
    can be attributed.  Deobfuscation and analysis run once per script in
    batch order; the path prefix runs per script that triage did not
    settle, beginning with a parse of that script's (normalized) text.
    """

    def __init__(self, detector, recorder: SpanRecorder):
        from repro.analysis import Analyzer
        from repro.core.features import FeatureExtractor
        from repro.deobfuscate import Deobfuscator
        from repro.embedding import AttentionEmbeddingModel
        from repro.paths import PathExtractor, PathFeaturizer
        from repro.paths import extraction as extraction_module

        self.recorder = recorder
        self.max_paths = detector.config.max_paths_per_script
        self._targets = [
            (extraction_module, "parse", "jsparser", self._wrap_parse),
            (extraction_module, "build_enhanced_ast", "dataflow", self._wrap_dataflow),
            (PathExtractor, "extract", "paths.enum", self._wrap_enum),
            (PathFeaturizer, "transform", "paths.featurize", self._wrap_current),
            (AttentionEmbeddingModel, "embed_paths", "embedding", self._wrap_embed),
            (FeatureExtractor, "transform", "core.features", self._wrap_batch),
            (type(detector.classifier), "predict_proba", "ml.classify", self._wrap_batch),
            (Deobfuscator, "normalize", "deobfuscate", self._wrap_normalize),
            (Analyzer, "analyze", "analysis", self._wrap_analyze),
        ]
        self._saved: list[tuple[object, str, object]] = []
        self._texts: list[str] = []
        self._next_normalize = 0
        self._next_analyze = 0
        self._parse_cursor = 0
        self._current: int | None = None

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "LayerTracer":
        for owner, attribute, layer, wrap in self._targets:
            # An inherited method is wrapped on ``owner`` and deleted again
            # on exit; an own attribute is put back.
            own = owner.__dict__.get(attribute)
            self._saved.append((owner, attribute, own))
            setattr(owner, attribute, wrap(getattr(owner, attribute), layer))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attribute, own in reversed(self._saved):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._saved.clear()
        return False

    @contextmanager
    def batch(self, sources: Sequence[str]) -> Iterator[Span]:
        self._texts = list(sources)
        self._next_normalize = self._next_analyze = self._parse_cursor = 0
        self._current = None
        try:
            with self.recorder.span(ROOT) as root:
                yield root
        finally:
            self.recorder.batch += 1

    # ------------------------------------------------------------- wrappers

    def _wrap_normalize(self, original, layer):
        tracer = self

        def normalize(self, source, *args, **kwargs):
            script = tracer._next_normalize
            tracer._next_normalize += 1
            with tracer.recorder.span(layer, script):
                normalized, report = original(self, source, *args, **kwargs)
            if script < len(tracer._texts):
                tracer._texts[script] = normalized
            tracer.recorder.counts["deobfuscate.scripts"] += 1
            tracer.recorder.counts["deobfuscate.changed"] += bool(report.changed)
            return normalized, report

        return normalize

    def _wrap_analyze(self, original, layer):
        tracer = self

        def analyze(self, *args, **kwargs):
            script = tracer._next_analyze
            tracer._next_analyze += 1
            with tracer.recorder.span(layer, script):
                report = original(self, *args, **kwargs)
            tracer.recorder.counts["analysis.scripts"] += 1
            tracer.recorder.counts["analysis.decisive"] += bool(report.decisive)
            return report

        return analyze

    def _wrap_parse(self, original, layer):
        tracer = self

        def parse(source, *args, **kwargs):
            texts = tracer._texts
            script = next(
                (i for i in range(tracer._parse_cursor, len(texts)) if texts[i] == source), None
            )
            if script is not None:
                tracer._parse_cursor = script + 1
            tracer._current = script
            with tracer.recorder.span(layer, script):
                return original(source, *args, **kwargs)

        return parse

    def _wrap_dataflow(self, original, layer):
        tracer = self

        def build(program, *args, **kwargs):
            with tracer.recorder.span(layer, tracer._current):
                enhanced = original(program, *args, **kwargs)
            tracer.recorder.counts["dataflow.calls"] += 1
            tracer.recorder.counts["dataflow.dep_edges"] += len(enhanced.dependency_edges)
            return enhanced

        return build

    def _wrap_enum(self, original, layer):
        tracer = self

        def extract(self, enhanced, *args, **kwargs):
            counts = tracer.recorder.counts
            with tracer.recorder.span(PROBE):
                leaves = count_leaves(enhanced.program)
            counts["paths.enum.calls"] += 1
            counts["paths.leaves"] += leaves
            counts["paths.pairs"] += leaves * (leaves - 1) // 2
            with tracer.recorder.span(layer, tracer._current):
                contexts = original(self, enhanced, *args, **kwargs)
            counts["paths.emitted"] += len(contexts)
            return contexts

        return extract

    def _wrap_embed(self, original, layer):
        tracer = self

        def embed_paths(self, paths, *args, **kwargs):
            with tracer.recorder.span(layer, tracer._current):
                embedded, weights = original(self, paths, *args, **kwargs)
            tracer.recorder.counts["embedding.rows"] += len(embedded)
            tracer.recorder.counts["embedding.kept"] += min(len(embedded), tracer.max_paths)
            return embedded, weights

        return embed_paths

    def _wrap_current(self, original, layer):
        tracer = self

        def method(self, *args, **kwargs):
            with tracer.recorder.span(layer, tracer._current):
                return original(self, *args, **kwargs)

        return method

    def _wrap_batch(self, original, layer):
        tracer = self

        def method(self, *args, **kwargs):
            with tracer.recorder.span(layer):
                return original(self, *args, **kwargs)

        return method
