from perfbench import inputs, workloads
from perfbench.inputs import Rung

RUNGS = [Rung(6.0, 1.0), Rung(12.0, 8.0), Rung(20.0, 2.0)]


def test_generators_are_deterministic_per_seed():
    a, b = inputs.corpus_large(3), inputs.corpus_large(3)
    assert inputs.fingerprint(a) == inputs.fingerprint(b)
    assert inputs.fingerprint(a) != inputs.fingerprint(inputs.corpus_large(4))

    p, q = inputs.serve_mixed(3, RUNGS), inputs.serve_mixed(3, RUNGS)
    assert inputs.fingerprint(p.scripts, p.requests) == inputs.fingerprint(q.scripts, q.requests)
    r = inputs.serve_mixed(4, RUNGS)
    assert inputs.fingerprint(p.scripts, p.requests) != inputs.fingerprint(r.scripts, r.requests)

    o1, o2 = inputs.corpus_obf(3, 2), inputs.corpus_obf(3, 2)
    assert inputs.fingerprint(o1) == inputs.fingerprint(o2)


def test_corpus_large_has_exact_sizes():
    assert [s.size for s in inputs.corpus_large(7)] == list(inputs.LARGE_SIZES) * inputs.LARGE_COPIES


def test_corpus_obf_keeps_the_composition_fixed():
    scripts = inputs.corpus_obf(5, 10)
    assert len(scripts) == 10 * 2
    assert [s.label for s in scripts] == [0, 1] * 10
    variants = [s.name.rsplit("/", 1)[1] for s in scripts]
    assert variants[::2] == variants[1::2] == list(inputs.OBF_VARIANTS) * 2
    families = [s.name.split("/")[1] for s in scripts]
    assert families == [s.name.split("/")[1] for s in inputs.corpus_obf(6, 10)]


def test_serve_plan_mix_schedule_and_repeats():
    plan = inputs.serve_mixed(9, RUNGS)
    for index, rung in enumerate(RUNGS):
        requests = plan.rung_requests(index)
        count = round(rung.rate_rps * rung.seconds)
        assert len(requests) == count
        kinds = [r.kind for r in requests]
        assert kinds.count("large") == round(inputs.LARGE_SHARE * count)
        assert kinds.count("repeat") == round(inputs.REPEAT_SHARE * count)
        dues = [r.due_s for r in requests]
        assert dues == sorted(dues)
        assert all(k / rung.rate_rps <= d < (k + 1) / rung.rate_rps for k, d in enumerate(dues))

    # A repeat re-sends a unique script due at least REPEAT_MIN_AGE_S earlier.
    offsets = [0.0]
    for rung in RUNGS[:-1]:
        offsets.append(offsets[-1] + rung.seconds)
    first_due = {i: float("-inf") for i in plan.warmup}
    for r in plan.requests:
        if r.kind == "unique":
            first_due[r.script] = offsets[r.rung] + r.due_s
    for r in plan.requests:
        if r.kind == "repeat":
            assert first_due[r.script] <= offsets[r.rung] + r.due_s - inputs.REPEAT_MIN_AGE_S
        elif r.kind == "large":
            assert plan.scripts[r.script].size == inputs.LARGE_SIZES[0]
    uniques = [r.script for r in plan.requests if r.kind != "repeat"]
    assert len(uniques) == len(set(uniques))


def test_size_histogram_bins():
    histogram = inputs.size_histogram(["x" * 10, "x" * 1024, "x" * 4096, "x" * 40000])
    assert histogram["0-1KiB"] == 1 and histogram["1-2KiB"] == 1
    assert histogram["4-8KiB"] == 1 and histogram[">=32KiB"] == 1
    assert sum(histogram.values()) == 4


def test_every_rung_of_the_ladder_carries_several_large_scripts():
    plan = inputs.serve_mixed(1, workloads.ladder(10.0))
    for index in range(len(plan.rungs)):
        kinds = [r.kind for r in plan.rung_requests(index)]
        assert kinds.count("large") >= 3
