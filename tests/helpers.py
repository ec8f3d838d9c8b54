"""Helpers shared by the test modules: a random-configuration generator and
an SVD oracle that shares no code with the package's closed forms."""

import numpy as np

from qsagnac import InterferometerConfig, UnitSystem


def random_config(rng):
    return InterferometerConfig(
        m=rng.uniform(0.5, 50.0),
        r1=rng.uniform(0.05, 1.5),
        r2=rng.uniform(0.05, 1.5),
        omega1=rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 0.05),
        omega2=rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 0.05),
        units=UnitSystem.NATURAL,
    )


def svd_concurrence(state):
    """Independent oracle: concurrence as twice the singular-value product."""
    s = np.linalg.svd(state.amplitudes, compute_uv=False)
    return 2.0 * float(s[0]) * float(s[1])
