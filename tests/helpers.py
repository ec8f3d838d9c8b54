"""Helpers shared by the test modules: a random-configuration generator and
an SVD/determinant oracle that shares no code with the package's closed
forms. The oracle works on the amplitudes of a PureState2x2."""

import math

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


def concurrence(state):
    """Pure-state concurrence 2 |det M|, 0 for product states and 1 at maximum."""
    m = state.amplitudes
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return min(1.0, 2.0 * abs(det))


def schmidt_decompose(state):
    """Schmidt coefficients (singular values of M), descending."""
    s = np.linalg.svd(state.amplitudes, compute_uv=False)
    return (float(s[0]), float(s[1]))


def entanglement_entropy(state):
    """Reduced-state von Neumann entropy in bits, -sum lam log2 lam."""
    entropy = 0.0
    for s in schmidt_decompose(state):
        lam = s * s
        if lam > 0.0:
            entropy -= lam * math.log2(lam)
    return entropy
