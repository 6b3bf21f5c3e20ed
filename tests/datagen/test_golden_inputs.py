"""Golden BDGS inputs: sha256 of every generated array, pinned.

``bench/digests.json`` pins two seeds at two scales, and only through
the simulator; a generator change that moves one token would show up
there two jobs later, as a changed cache statistic.  This pins the
inputs themselves -- every array of every ``*_input`` helper of
:mod:`repro.workloads.inputs` at scales 1, 2 and 8, seeds 0 and 3 -- in
``golden_inputs.json`` beside this file.

The hashes were recorded before the generators were moved onto
:mod:`repro.core.keyed`.  After an *intended* change to what a generator
produces, re-record them::

    PYTHONPATH=src python tests/datagen/test_golden_inputs.py --record
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.workloads import inputs

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_inputs.json")

KINDS = ("text_input", "pages_input", "web_graph_input",
         "social_graph_input", "reviews_input", "ecommerce_input",
         "resumes_input", "kmeans_points_input")
SCALES = (1, 2, 8)
SEEDS = (0, 3)


def array_hashes(generated) -> dict:
    """``{array name: sha256}`` over dtype, shape and bytes; the codec's
    JSON metadata is hashed under ``"<meta>"``."""
    if isinstance(generated, np.ndarray):
        meta, arrays = {}, {"points": generated}
    else:
        meta, arrays = generated.to_arrays()
    hashes = {"<meta>": hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode()).hexdigest()}
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
        hashes[name] = digest.hexdigest()
    return hashes


def generate(kind: str, scale: int, seed: int) -> dict:
    return array_hashes(getattr(inputs, kind)(scale, seed))


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("kind", KINDS)
def test_generated_arrays_match_the_recorded_hashes(kind, scale, seed):
    assert generate(kind, scale, seed) == _golden()[f"{kind}/{scale}/{seed}"]


def test_every_point_is_recorded():
    assert sorted(_golden()) == sorted(
        f"{kind}/{scale}/{seed}"
        for kind in KINDS for scale in SCALES for seed in SEEDS)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    recorded = {f"{kind}/{scale}/{seed}": generate(kind, scale, seed)
                for kind in KINDS for scale in SCALES for seed in SEEDS}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(recorded)} inputs to {GOLDEN_PATH}")
