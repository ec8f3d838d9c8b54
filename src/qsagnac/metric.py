"""Metric of a uniformly rotating disk and its flat-background split.

Coordinates are (t, r, phi, z). The disk spinning at angular frequency
omega has g00 = -1 + omega^2 r^2 / c^2 and the frame-dragging coupling
g0phi = omega r^2 / c; the background is the flat cylindrical metric
diag(-1, 1, r^2, 1), so the perturbation h = g - background carries
h00 = omega^2 r^2 / c^2.
"""

from __future__ import annotations

from collections import namedtuple

from .constants import ConstantSet, require_linear_regime

# g  4x4 numpy array of components in coordinate order (t, r, phi, z)
# c  light speed used to build the components
DiskMetric = namedtuple("DiskMetric", "g omega r c")

# h00    omega^2 r^2 / c^2
# h0phi  omega r^2 / c
# full   4x4 numpy array: g minus the flat cylindrical background
Perturbation = namedtuple("Perturbation", "h00 h0phi full")


def flat_background(r: float):
    """Cylindrical Minkowski metric diag(-1, 1, r^2, 1) as a 4x4 numpy array."""
    import numpy as np  # imported here, so no other code path loads numpy

    return np.diag([-1.0, 1.0, r * r, 1.0])


def rotating_disk_metric(omega: float, r: float, consts: ConstantSet) -> DiskMetric:
    """Metric components at radius r on a disk spinning at omega.

    Rejects negative radii, rim speeds at or above c, and radii whose
    square overflows a double.
    """
    beta = require_linear_regime(omega, r, consts).beta
    g = flat_background(r)
    g[0, 0] = -1.0 + beta * beta
    g[0, 2] = g[2, 0] = omega * r * r / consts.c
    return DiskMetric(g=g, omega=float(omega), r=float(r), c=consts.c)


def perturbation(metric: DiskMetric) -> Perturbation:
    """Split the metric into flat background plus deviation.

    The h00 and h0phi fields come from the closed forms; the full array is
    the componentwise difference, which adds back to the metric exactly.
    """
    rim = metric.omega * metric.r / metric.c
    return Perturbation(
        h00=rim * rim,
        h0phi=float(metric.g[0, 2]),
        full=metric.g - flat_background(metric.r),
    )
