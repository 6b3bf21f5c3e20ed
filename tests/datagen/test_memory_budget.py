"""Memory of the BDGS inputs: output plus one chunk, not copies.

Every ``*_input`` generator, and the keyed kernels the volume path runs
on them, allocate their output and at most one chunk
(``repro.keyed.GUIDE_CHUNK`` elements) of temporaries.  This pins that
as tracemalloc's peak over the bytes of the arrays a build returns, per
kind at scale 8 -- the table recorded in ``docs/MODEL.md`` section 8,
with at most 25 % headroom.  A generator that gathers, masks or copies
its whole output once more lands far above its row.
"""

import tracemalloc

import numpy as np
import pytest

from repro import keyed
from repro.datagen.text import TextCorpus
from repro.workloads import inputs

SCALE = 8

#: Peak over output bytes at scale 8, with at most 25 % headroom over
#: what the generators measure (text 1.08, pages 1.10, web graph 2.07,
#: social graph 2.07, reviews 1.38, ecommerce 1.33, resumes 1.43,
#: K-means points 1.17).  The resume set is half a megabyte, so its
#: fixed costs show.
BUDGET = {
    "text": 1.3,
    "pages": 1.3,
    "web_graph": 2.4,
    "social_graph": 2.4,
    "reviews": 1.5,
    "ecommerce": 1.6,
    "resumes": 1.8,
    "kmeans_points": 1.4,
}

MODELS = ("text_model", "web_graph_model", "social_graph_model",
          "review_model", "ecommerce_model", "resume_model")


def output_bytes(generated) -> int:
    if isinstance(generated, np.ndarray):
        return generated.nbytes
    _, arrays = generated.to_arrays()
    return sum(array.nbytes for array in arrays.values())


def traced_peak(build):
    """``(result, peak bytes)`` of one call under tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", autouse=True)
def warm_models():
    """The seed models are fitted once per process (``lru_cache``); the
    budget is the generator's, not the fit's."""
    for model in MODELS:
        getattr(inputs, model)()


@pytest.mark.parametrize("kind", sorted(BUDGET))
def test_generator_peak_stays_within_its_budget(kind):
    build = getattr(inputs, f"{kind}_input")
    generated, peak = traced_peak(lambda: build(SCALE))
    ratio = peak / output_bytes(generated)
    assert ratio <= BUDGET[kind], (
        f"{kind}_input({SCALE}) peaked at {peak / 2**20:.1f} MB, "
        f"{ratio:.2f}x its output (budget {BUDGET[kind]}x)")


def read_only_keys(size: int, span: int) -> np.ndarray:
    """Keys as a shared input hands them out: set read-only, which makes
    ``np.bincount`` copy them whole."""
    keys = np.random.default_rng(0).integers(0, span, size=size)
    keys.setflags(write=False)
    return keys


def test_group_sum_counts_without_a_copy_of_its_keys():
    keys = read_only_keys(1 << 23, 40_000)
    (unique, counts), peak = traced_peak(lambda: keyed.group_sum(keys))
    assert counts.sum() == keys.size and unique.size <= 40_000
    assert peak < keys.nbytes / 4


def test_corpus_size_is_summed_without_a_gather():
    corpus = TextCorpus(tokens=read_only_keys(1 << 23, 40_000),
                        doc_offsets=np.array([0, 1 << 23]),
                        vocab_size=40_000)
    nbytes, peak = traced_peak(lambda: corpus.nbytes)
    lengths = corpus.vocabulary.word_lengths()
    assert nbytes == int(lengths[corpus.tokens].sum()) + corpus.num_tokens
    assert peak < corpus.tokens.nbytes / 4
