"""The line classifiers' model bytes, pinned: one sha256 over what save_model
writes for the three views, each trained on build_line_dataset of a fixed
seeded corpus.

A change that is meant to keep behaviour (another feature path, a cheaper
training loop) must leave DIGEST as it is. A change that is meant to alter
the models trained on these samples updates DIGEST and says why.
"""

from __future__ import annotations

import hashlib
import random

from synth import c_subset_function
from trustvet.corpus import NON_VULNERABLE, VULNERABLE, CorpusRecord
from trustvet.frontend.lexer import split_lines
from trustvet.lineassess.classifier import TrainConfig, save_model, train_classifier
from trustvet.lineassess.dataset import build_line_dataset
from trustvet.lineassess.features import ALL_VIEWS

SEED = 3


def corpus(seed: int, n: int = 64) -> list[CorpusRecord]:
    """Generated functions, alternately vulnerable (up to three random body
    lines) and clean."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        source = c_subset_function(rng, 8 + i % 24)
        if i % 2:
            records.append(CorpusRecord(f"clean_{i}", source, NON_VULNERABLE))
            continue
        body = range(3, len(split_lines(source)))
        vul = tuple(sorted(rng.sample(body, min(3, len(body)))))
        records.append(CorpusRecord(f"vul_{i}", source, VULNERABLE, vul_lines=vul))
    return records


def model_digest(tmp_path, seed: int) -> tuple[str, int]:
    """sha256 over the saved model of each view, and the sample count."""
    samples, _ = build_line_dataset(corpus(seed), seed=seed)
    digest = hashlib.sha256()
    for view in ALL_VIEWS:
        clf = train_classifier(samples, view, TrainConfig(seed=seed))
        assert clf.heldout_accuracy is not None  # the held-out path is covered
        path = tmp_path / f"{view.value}.json"
        save_model(clf, path)
        digest.update(path.read_bytes())
    return digest.hexdigest(), len(samples)


DIGEST = "a728b7fed516b4c77adb540990ba5d5fae102fc791c50021b2af2447c3f85c34"


def test_model_bytes_are_unchanged(tmp_path):
    digest, count = model_digest(tmp_path, SEED)
    assert count > 100
    assert digest == DIGEST
