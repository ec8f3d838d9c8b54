"""Metric of a uniformly rotating disk and its flat-background split.

Coordinates are (t, r, phi, z). The disk spinning at angular frequency
omega has g00 = -1 + omega^2 r^2 / c^2 and the frame-dragging coupling
g0phi = omega r^2 / c; the background is the flat cylindrical metric
diag(-1, 1, r^2, 1), so the perturbation h = g - background carries
h00 = omega^2 r^2 / c^2.

The loop phase of phase.py is the frame-dragging term read off the metric:

    phi = 2 pi m c g0phi / hbar = (2 m / hbar) omega pi r^2,

the reading on which the equivalence-principle argument rests, beside the
energy route through h00 that phase.py states.
"""

from collections import namedtuple

from .constants import ConstantSet, require_linear_regime


class DiskMetric(namedtuple("DiskMetric", "rows omega r regime")):
    """The metric at one radius of a spinning disk.

    rows    four rows of four floats, components in coordinate order
            (t, r, phi, z)
    regime  the RegimeCheck of the rim, whose beta sets g00 and h00
    """

    __slots__ = ()

    @property
    def g(self):
        """rows as a new 4x4 float64 numpy array on each access."""
        import numpy as np  # imported here, so no other code path loads numpy

        return np.array(self.rows)


# h00    omega^2 r^2 / c^2
# h0phi  omega r^2 / c
# full   four rows of four floats: the metric's rows minus the flat
#        cylindrical background's
Perturbation = namedtuple("Perturbation", "h00 h0phi full")


def flat_background(r: float) -> tuple:
    """Cylindrical Minkowski metric diag(-1, 1, r^2, 1) as four rows of floats."""
    return (
        (-1.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, float(r * r), 0.0),
        (0.0, 0.0, 0.0, 1.0),
    )


def rotating_disk_metric(omega: float, r: float, consts: ConstantSet) -> DiskMetric:
    """Metric components at radius r on a disk spinning at omega.

    Rejects negative radii, rim speeds at or above c, and radii whose
    square overflows a double.
    """
    regime = require_linear_regime(omega, r, consts)
    g0phi = float(omega * r * r / consts.c)
    rows = (
        (-1.0 + regime.beta * regime.beta, 0.0, g0phi, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (g0phi, 0.0, float(r * r), 0.0),
        (0.0, 0.0, 0.0, 1.0),
    )
    return tuple.__new__(DiskMetric, (rows, float(omega), float(r), regime))


def perturbation(metric: DiskMetric) -> Perturbation:
    """Split the metric into flat background plus deviation.

    h00 is the square of the rim speed the regime gate computed, h0phi the
    metric's own component; the full rows are the componentwise difference,
    which adds back to the metric exactly.
    """
    beta = metric.regime.beta
    full = tuple(
        tuple(g - f for g, f in zip(g_row, f_row))
        for g_row, f_row in zip(metric.rows, flat_background(metric.r))
    )
    return tuple.__new__(Perturbation, (beta * beta, metric.rows[0][2], full))
