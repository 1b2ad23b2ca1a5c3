"""Named, reproducible random streams.

Every stochastic choice in the package draws from its own PCG64 stream,
keyed by (seed, purpose, index).  Purposes are fixed integers so that
enabling or disabling one feature (say, failure injection) never shifts
the draws of another, and so that instances regenerate bit-identically
from a seed alone.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

# Stream purposes.  Values are part of the reproducibility contract: do not
# renumber.
MATRIX = 0        # sparse pattern and values of A
SOLUTION = 1      # planted solution
NOISE = 2         # right-hand-side noise
TOPOLOGY = 3      # random fill edges
SCHEDULING = 4    # per-agent iteration intervals
DELAY = 5         # per-agent message delays
BLOCKS = 6        # per-agent block sampling
FAILURE_SELECT = 7  # which agents get the failure mechanism
FAILURE = 8       # per-agent halt schedule draws
INIT = 9          # per-agent random initial estimates


def stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Return the generator for one (seed, purpose, index) triple; seeds are non-negative."""
    if int(seed) < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(purpose), int(index)])))
