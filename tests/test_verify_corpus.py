"""Replay every archived reproducer in tests/corpus/ through the oracle.

This is the "bugs stay found" half of the verify subsystem: any failure
``repro verify`` ever shrank and archived — plus the hand-written seed
workloads — is re-run on every test invocation.  Checked-in corpus
entries are expected to *pass* (they archive once-fixed bugs or
interesting-but-healthy workloads); a reproducer for a still-open bug
would live on a branch alongside its fix.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.verify import iter_corpus, load_reproducer, replay

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = iter_corpus(CORPUS_DIR)


def test_corpus_is_seeded():
    assert len(CORPUS_FILES) >= 3, "expected the hand-written seed corpus"


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_reproducer_replays_clean(path):
    reproducer = load_reproducer(path)
    report = replay(reproducer)
    assert report.n_runs > 0
    assert "strategy-identity" in report.checks


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_reproducer_filename_matches_content(path):
    reproducer = load_reproducer(path)
    assert path.stem.endswith(reproducer.content_id()), (
        "corpus filenames embed the workload hash; regenerate with "
        "write_reproducer() after editing"
    )


def test_corpus_feeds_the_reducer_a_pruned_row():
    """No generated verify system has a prunable row, so the corpus must
    carry one for obs-vs-estimator to replay an ArcsPruned event."""
    (path,) = [p for p in CORPUS_FILES if p.stem.startswith("pruned-row-")]
    report = replay(load_reproducer(path))
    assert "obs-vs-estimator" in report.checks
    assert report.n_pruned_runs > 0
