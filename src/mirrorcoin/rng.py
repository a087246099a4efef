"""Deterministic random-number substreams.

Every random draw in the package comes from a Philox counter-based
generator keyed by ``(master seed, purpose tag)``.  Philox streams
seeded this way are independent and reproducible across platforms and
across any parallel execution order, which is what makes whole runs
byte-identical for a fixed config and seed.
"""

from __future__ import annotations

import numpy as np

# Stable purpose -> tag mapping.  Append only; renumbering existing tags
# changes every downstream draw.
PURPOSE_TAGS = {
    "init": 0,
    "mla_noise": 1,
    "ground_truth": 2,
    "target_synth": 3,
}


def substream(seed: int, purpose: str) -> np.random.Generator:
    """Return the generator for one (seed, purpose) substream."""
    try:
        tag = PURPOSE_TAGS[purpose]
    except KeyError:
        raise KeyError(f"unknown RNG purpose {purpose!r}; known: {sorted(PURPOSE_TAGS)}")
    # the spawn key's trailing 0 is part of every draw's bits: keep it
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag, 0))
    return np.random.Generator(np.random.Philox(ss))
