"""Random points of a witness's separable region, for tests that check a
search result against points the search never saw."""

import numpy as np


def sample_separable(witness, rng: np.random.Generator) -> np.ndarray:
    """A random point of the separable region: the first of 64 uniform box
    points that lies in the region, else the projection of one more."""
    shape = (1, witness.num_settings)
    for _ in range(64):
        t = rng.uniform(witness.low, 1.0, shape)
        if witness.violation(t[0]) == 0.0:
            return t[0]
    return witness.project_batch(rng.uniform(witness.low, 1.0, shape))[0]
