import pytest

from perfbench import spans
from perfbench.spans import PROBE, ROOT, Span, SpanRecorder, check_script_spans, layer_totals, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def record(recorder, clock, name, start, end, script=None, body=None):
    clock.now = start
    with recorder.span(name, script):
        if body:
            body()
        clock.now = end


def test_self_time_subtracts_children_but_not_grandchildren():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def root_body():
        record(recorder, clock, "paths.enum", 1.0, 4.0, 0,
               body=lambda: record(recorder, clock, "embedding", 2.0, 3.0, 0))
        record(recorder, clock, "jsparser", 5.0, 6.0, 0)

    record(recorder, clock, ROOT, 0.0, 10.0, body=root_body)
    by_name = dict(zip([s.name for s in recorder.spans], self_times(recorder.spans)))
    assert by_name == {ROOT: 6.0, "paths.enum": 2.0, "embedding": 1.0, "jsparser": 1.0}
    assert [s.parent for s in recorder.spans] == [None, 0, 1, 0]


def test_overlapping_children_are_counted_once_and_clipped_to_the_parent():
    parent = Span("p", 0.0, 10.0, None)
    kids = [Span("a", 1.0, 5.0, 0), Span("b", 3.0, 7.0, 0), Span("c", 9.0, 12.0, 0)]
    assert self_times([parent, *kids])[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_exclude_probe_time_and_add_up_to_the_wall():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def root_body():
        record(recorder, clock, "deobfuscate", 1.0, 3.0, 0)
        record(recorder, clock, PROBE, 3.0, 4.0)
        record(recorder, clock, "paths.enum", 4.0, 8.0, 0)

    record(recorder, clock, ROOT, 0.0, 10.0, body=root_body)
    totals = layer_totals(recorder.spans)
    assert totals.probe_s == 1.0
    assert totals.wall_s == 9.0
    assert totals.self_s[ROOT] == 3.0
    assert sum(totals.self_s.values()) == pytest.approx(totals.wall_s)


def test_check_script_spans_flags_duplicates_strays_and_missing_layers():
    spans_ = [
        Span(ROOT, 0, 1, None),
        Span("jsparser", 0, 1, 0, script=0),
        Span("jsparser", 0, 1, 0, script=0),
        Span("dataflow", 0, 1, 0, script=None),
        Span("core.features", 0, 1, 0),
    ]
    problems = check_script_spans(spans_, [["jsparser@0", "paths.enum@1"]])
    assert problems == [
        "batch 0: dataflow span outside any script",
        "batch 0 script 0: 2 jsparser spans",
        "batch 0 script 1: no paths.enum span",
    ]
    assert check_script_spans([Span("jsparser", 0, 1, None, script=0)], [["jsparser@0"]]) == []


def test_layer_tracer_restores_every_wrapped_function():
    from repro.analysis import Analyzer
    from repro.core.features import FeatureExtractor
    from repro.deobfuscate import Deobfuscator
    from repro.embedding import AttentionEmbeddingModel
    from repro.ml import RandomForestClassifier
    from repro.paths import PathExtractor, PathFeaturizer
    from repro.paths import extraction

    class Config:
        max_paths_per_script = 300

    class Detector:
        config = Config()
        classifier = RandomForestClassifier()

    owners = [
        (extraction, "parse"), (extraction, "build_enhanced_ast"), (PathExtractor, "extract"),
        (PathFeaturizer, "transform"), (AttentionEmbeddingModel, "embed_paths"),
        (FeatureExtractor, "transform"), (RandomForestClassifier, "predict_proba"),
        (Deobfuscator, "normalize"), (Analyzer, "analyze"),
    ]
    before = [owner.__dict__[name] for owner, name in owners]
    with spans.LayerTracer(Detector(), SpanRecorder()):
        assert all(owner.__dict__[name] is not b for (owner, name), b in zip(owners, before))
    assert all(owner.__dict__[name] is b for (owner, name), b in zip(owners, before))


def test_layer_tracer_attributes_spans_and_counts_on_a_real_scan():
    from repro.jsparser import parse
    from repro.paths import PathExtractor

    class Config:
        max_paths_per_script = 300

    class Detector:
        config = Config()

        class classifier:  # noqa: N801 - stands in for a classifier instance
            pass

    Detector.classifier = type("Stub", (), {"predict_proba": lambda self, X: X})()
    recorder = SpanRecorder()
    sources = ["var a = 1; var b = a + 2;", "function f(x) { return x * 2; } f(3);"]
    with spans.LayerTracer(Detector(), recorder) as tracer:
        for source in sources:
            with tracer.batch(sources):
                PathExtractor().extract_from_source(source)
    names = [(s.name, s.script) for s in recorder.spans]
    assert names == [
        (ROOT, None), ("jsparser", 0), ("dataflow", 0), (PROBE, None), ("paths.enum", 0),
        (ROOT, None), ("jsparser", 1), ("dataflow", 1), (PROBE, None), ("paths.enum", 1),
    ]
    assert recorder.counts["paths.enum.calls"] == 2
    assert recorder.counts["paths.leaves"] == sum(spans.count_leaves(parse(s)) for s in sources)
    assert recorder.counts["paths.emitted"] > 0
