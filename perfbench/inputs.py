"""Seeded, deterministic inputs for the three workloads.

Everything here is a pure function of ``seed``: the same seed gives the
same scripts, names, labels and (for ``serve-mixed``) the same arrival
schedule and repeat pattern.  :func:`fingerprint` hashes the lot so two
commits can be shown to have measured identical inputs, and
:func:`size_histogram` summarises their sizes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.datasets import (
    BENIGN_FAMILIES,
    MALICIOUS_FAMILIES,
    build_realistic_corpus,
    generate_benign,
    generate_malicious,
)
from repro.jsparser import parse
from repro.obfuscation import ALL_OBFUSCATORS, Minifier, WildObfuscator

#: Script sizes of ``corpus-large``, in bytes, and scripts of each size.
LARGE_SIZES = (4096, 8192, 16384)
LARGE_COPIES = 2

#: Composition stops once the gap to the target is this small (it is
#: then padded with blanks) or after this many fragments did not fit.
_MIN_GAP = 48
_MAX_MISSES = 12

#: ``serve-mixed`` traffic: in every rung these shares of the requests,
#: at seeded positions, are 4 KiB scripts and re-sent scripts; the rest
#: are unique small corpus scripts.  Both shares are assumptions, not
#: measurements of real traffic: a quarter of requests re-sent gives the
#: verdict cache a hit rate that shows in the latency median, and 5 % of
#: 4 KiB scripts puts at least three of them in every rung of the
#: ladder, so head-of-line waiting behind one shows in each rung.
LARGE_SHARE = 0.05
REPEAT_SHARE = 0.25
#: A repeat re-sends a script first due at least this long before it,
#: so the original has normally been answered (and cached) already.
REPEAT_MIN_AGE_S = 1.0
#: Unique scripts sent before the measured phase to warm the fleet;
#: repeats early in the schedule draw from them.
WARMUP_SCRIPTS = 16


@dataclass(frozen=True)
class Script:
    name: str
    source: str
    #: 1 = malicious, 0 = benign, ``None`` = unlabeled.
    label: int | None

    @property
    def size(self) -> int:
        return len(self.source.encode("utf-8"))


@dataclass(frozen=True)
class Request:
    """One scheduled ``serve-mixed`` request."""

    rung: int
    #: Seconds after the rung's start at which the request is due.
    due_s: float
    kind: str  # unique | repeat | large
    script: int  # index into ServePlan.scripts


@dataclass(frozen=True)
class Rung:
    rate_rps: float
    seconds: float


@dataclass
class ServePlan:
    scripts: list[Script]
    warmup: list[int]
    rungs: list[Rung]
    requests: list[Request]

    def rung_requests(self, rung: int) -> list[Request]:
        return [r for r in self.requests if r.rung == rung]


# ------------------------------------------------------------------ corpora


def realistic_scripts(seed: int, per_class: int) -> list[Script]:
    """Benign and malicious scripts with the realistic corpus's mixture.

    The mixture of :func:`repro.datasets.build_realistic_corpus` (40 %
    of benign scripts minified and 10 % wild-obfuscated, half of the
    malicious ones wild-obfuscated), drawn stratified: families cycle in
    a fixed order and each transform is given to a fixed number of
    scripts, so every seed has the same composition and draws only the
    scripts themselves.  Benign and malicious scripts alternate.
    """
    rng = np.random.default_rng([seed, 0])
    minify = Minifier(seed=int(rng.integers(0, 2**31)))
    wild = WildObfuscator(seed=int(rng.integers(0, 2**31)))

    def transforms(rates: dict[str, float]) -> list[str]:
        plan = [name for name, rate in rates.items() for _ in range(round(rate * per_class))]
        plan += ["none"] * (per_class - len(plan))
        return [str(t) for t in rng.permutation(plan)]

    tools = {"minify": minify, "wild": wild}
    benign_plan = transforms({"minify": 0.4, "wild": 0.1})
    malicious_plan = transforms({"wild": 0.5})
    benign, malicious = list(BENIGN_FAMILIES), list(MALICIOUS_FAMILIES)
    scripts = []
    for i in range(per_class):
        for label, families, generate, plan in (
            (0, benign, generate_benign, benign_plan),
            (1, malicious, generate_malicious, malicious_plan),
        ):
            family = families[i % len(families)]
            source = generate(rng, family=family)
            if plan[i] != "none":
                try:
                    source = tools[plan[i]].obfuscate(source)
                except Exception:  # as the realistic corpus does: keep the input
                    pass
            scripts.append(Script(f"{family}/{i:02d}/{plan[i]}", source, label))
    return scripts


#: ``corpus-obf`` variants: the script as drawn, or re-obfuscated by one tool.
OBF_VARIANTS = ("clean", *ALL_OBFUSCATORS)


def corpus_obf(seed: int, per_class: int) -> list[Script]:
    """Realistic scripts, each clean or re-obfuscated by one of the four tools.

    The ``k``-th script of each class gets variant ``k`` mod 5 of
    :data:`OBF_VARIANTS`, so with ``per_class`` a multiple of five every
    variant holds the same number of scripts of each class.  Every
    script is drawn independently: with the same number of scripts this
    draws five times as many as giving each script every variant, and
    the workload's cost moves less with the seed.  A script a tool
    cannot process stays unobfuscated, as in
    :meth:`repro.datasets.Corpus.obfuscated`.
    """
    tools = {name: cls(seed=seed + 1000) for name, cls in ALL_OBFUSCATORS.items()}
    out = []
    for i, script in enumerate(realistic_scripts(seed, per_class)):
        variant = OBF_VARIANTS[(i // 2) % len(OBF_VARIANTS)]  # classes alternate
        source = script.source
        if variant != "clean":
            try:
                source = tools[variant].obfuscate(source)
            except Exception:  # the tool's parser subset; keep the input
                pass
        out.append(Script(f"obf/{script.name}/{variant}", source, script.label))
    return out


def fragments(rng: np.random.Generator) -> Iterator[str]:
    """Endless generator outputs, benign and malicious families in turn."""
    benign, malicious = list(BENIGN_FAMILIES), list(MALICIOUS_FAMILIES)
    i = 0
    while True:
        yield generate_benign(rng, family=benign[i % len(benign)])
        yield generate_malicious(rng, family=malicious[i % len(malicious)])
        i += 1


def compose(stream: Iterator[str], target_bytes: int) -> str:
    """Concatenate IIFE-wrapped fragments into exactly ``target_bytes``.

    Fragments that would overshoot are skipped; the final gap (under
    :data:`_MIN_GAP` bytes, or whatever is left once :data:`_MAX_MISSES`
    fragments did not fit) is padded with blanks, which no layer reads.
    """
    parts: list[str] = []
    size = 0
    misses = 0
    for fragment in stream:
        wrapped = f"(function () {{\n{fragment}\n}})();\n"
        length = len(wrapped.encode("utf-8"))
        if size + length <= target_bytes:
            parts.append(wrapped)
            size += length
        else:
            misses += 1
        if target_bytes - size < _MIN_GAP or misses >= _MAX_MISSES:
            break
    source = "".join(parts) + " " * (target_bytes - size)
    parse(source)  # a composition that does not parse is a generator bug
    return source


def corpus_large(seed: int) -> list[Script]:
    """:data:`LARGE_COPIES` clean scripts of each size in :data:`LARGE_SIZES`, sizes in turn."""
    stream = fragments(np.random.default_rng([seed, 1]))
    return [
        Script(f"large/{size // 1024:02d}k-{copy}", compose(stream, size), None)
        for copy in range(LARGE_COPIES)
        for size in LARGE_SIZES
    ]


# ---------------------------------------------------------------- serve plan


def serve_mixed(seed: int, rungs: Sequence[Rung]) -> ServePlan:
    """Arrival schedule and traffic mix for the open-loop ``serve-mixed``.

    Each rung offers ``rate_rps`` for ``seconds``: request ``k`` is due
    at ``(k + u) / rate`` with ``u`` uniform in [0, 1), one arrival per
    slot.  Rungs run one after another, each timed from its own start.
    """
    rng = np.random.default_rng([seed, 2])
    counts = [int(round(rung.rate_rps * rung.seconds)) for rung in rungs]
    kinds: list[str] = []
    for count in counts:
        rung_kinds = ["unique"] * count
        positions = rng.permutation(count)
        n_large, n_repeat = round(LARGE_SHARE * count), round(REPEAT_SHARE * count)
        for p in positions[:n_large]:
            rung_kinds[p] = "large"
        for p in positions[n_large : n_large + n_repeat]:
            rung_kinds[p] = "repeat"
        kinds += rung_kinds
    n_unique = kinds.count("unique") + WARMUP_SCRIPTS
    n_large = kinds.count("large")

    corpus = build_realistic_corpus((n_unique + 1) // 2, (n_unique + 1) // 2, seed=seed)
    scripts = [
        Script(f"small/{i:04d}", corpus.sources[i], int(corpus.labels[i])) for i in range(n_unique)
    ]
    stream = fragments(np.random.default_rng([seed, 3]))
    large_first = len(scripts)
    scripts += [Script(f"large/{i:03d}", compose(stream, LARGE_SIZES[0]), None) for i in range(n_large)]

    warmup = list(range(WARMUP_SCRIPTS))
    #: (global due offset, script index) of every unique script sent so far.
    sent: list[tuple[float, int]] = [(-np.inf, i) for i in warmup]
    next_unique, next_large = WARMUP_SCRIPTS, large_first
    requests: list[Request] = []
    offset = 0.0
    k = 0
    for index, (rung, count) in enumerate(zip(rungs, counts)):
        for slot in range(count):
            due = (slot + float(rng.random())) / rung.rate_rps
            kind = kinds[k]
            k += 1
            if kind == "unique":
                script = next_unique
                next_unique += 1
                sent.append((offset + due, script))
            elif kind == "large":
                script = next_large
                next_large += 1
            else:
                old = [i for at, i in sent if at <= offset + due - REPEAT_MIN_AGE_S]
                script = old[int(rng.integers(0, len(old)))]
            requests.append(Request(index, due, kind, script))
        offset += rung.seconds
    return ServePlan(scripts=scripts, warmup=warmup, rungs=list(rungs), requests=requests)


# --------------------------------------------------------------- provenance


def fingerprint(scripts: Sequence[Script], requests: Sequence[Request] = ()) -> str:
    """SHA-256 over every script (name, label, source) and request."""
    digest = hashlib.sha256()
    for script in scripts:
        digest.update(f"{script.name}\0{script.label}\0".encode())
        digest.update(script.source.encode("utf-8"))
        digest.update(b"\0")
    for request in requests:
        digest.update(f"{request.rung}:{request.due_s:.9f}:{request.kind}:{request.script}\n".encode())
    return digest.hexdigest()


#: Upper bounds (KiB) of the size-histogram bins; the last bin is open.
SIZE_BINS_KIB = (1, 2, 4, 8, 16, 32)


def size_histogram(sources: Sequence[str]) -> dict[str, int]:
    """Count of scripts per size bin, keyed like ``"2-4KiB"``."""
    labels = []
    low = 0
    for high in SIZE_BINS_KIB:
        labels.append(f"{low}-{high}KiB")
        low = high
    labels.append(f">={low}KiB")
    counts = dict.fromkeys(labels, 0)
    for source in sources:
        kib = len(source.encode("utf-8")) / 1024.0
        index = next((i for i, high in enumerate(SIZE_BINS_KIB) if kib < high), len(SIZE_BINS_KIB))
        counts[labels[index]] += 1
    return counts
