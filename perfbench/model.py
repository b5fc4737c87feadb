"""The bench-scale model every workload scans with.

The model is part of the system under test, not of the workload, so it
is trained from a fixed corpus seed: every run trains the same model and
only the inputs follow ``--seed``.  The configuration is the repo's own
bench-scale one (:func:`repro.bench.default_jsrevealer_config`) on a
smaller training split, so that training fits several times into one
run's set-up.
"""

from __future__ import annotations

from repro.bench import default_jsrevealer_config
from repro.core import JSRevealer, save_detector
from repro.datasets import experiment_split

MODEL_SEED = 0
PRETRAIN_PER_CLASS = 6
TRAIN_PER_CLASS = 10


def train_model(model_dir: str | None = None) -> JSRevealer:
    """Train the bench-scale detector; save it to ``model_dir`` when given."""
    split = experiment_split(
        seed=MODEL_SEED,
        pretrain_per_class=PRETRAIN_PER_CLASS,
        train_per_class=TRAIN_PER_CLASS,
        test_per_class=0,
        realistic=True,
    )
    detector = JSRevealer(default_jsrevealer_config(seed=MODEL_SEED))
    detector.pretrain(split.pretrain.sources, split.pretrain.labels)
    detector.fit(split.train.sources, split.train.labels)
    if model_dir is not None:
        save_detector(detector, model_dir)
    return detector
