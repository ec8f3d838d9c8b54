"""High-precision reference answers, independent of the qsagnac package.

Every figure is recomputed with mpmath from the exact input doubles and
exact CODATA 2018 decimal constants, keeping at least 50 significant
digits after the phases are reduced mod 2 pi. Nothing here imports
qsagnac, so a defect in the package cannot hide in its own reference.

An input is *answerable* when a double can carry the answer to the
package's own tolerance (MAXIMAL_TOL on concurrence): for a report, when
rounding delta to a double, |delta| * 2^-53, does not exceed it even taken
SLACK times over, for the few roundings any double evaluation of delta
makes. An answerable input is *naive-safe* when every branch phase phi_jk
also fits in a double that way, so even a phase-by-phase evaluation has to
get it right.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

MAXIMAL_TOL = 1e-9   # the package's tolerance on |concurrence - 1|, restated
REL_TOL = 1e-12      # relative tolerance on plain closed-form figures
DPS = 50
ULP_SHARE = mpf(2) ** -53
SLACK = 8            # roundings allowed for when judging what a double can carry
WARN_BETA = 0.1
ERROR_BETA = 1.0


@dataclass(frozen=True)
class Consts:
    hbar: mpf
    c: mpf
    m_e: mpf
    a0: mpf
    alpha: mpf


@functools.lru_cache(maxsize=None)
def consts(units: str) -> Consts:
    """Constants at DPS + 20 digits; computed once per unit system."""
    with mp.workdps(DPS + 20):
        alpha = mpf("7.2973525693e-3")
        if units == "natural":
            return Consts(mpf(1), mpf(1), mpf(1), 1 / alpha, alpha)
        return Consts(
            hbar=mpf("6.62607015e-34") / (2 * mp.pi),
            c=mpf(299792458),
            m_e=mpf("9.1093837015e-31"),
            a0=mpf("5.29177210903e-11"),
            alpha=alpha,
        )


def _digits(*values) -> int:
    """Working digits that keep DPS digits below the units place."""
    mag = max((abs(mpf(v)) for v in values), default=mpf(0))
    extra = 0 if mag < 1 else int(mpmath.log10(mag)) + 1
    return DPS + extra + 10


def phases(m, r1, r2, w1, w2, k: Consts):
    """Branch phases phi_jk = (2 m / hbar) omega_k pi r_j^2, j over radii."""
    two = 2 * mpf(m) / k.hbar * mp.pi
    return [[two * mpf(w) * mpf(r) ** 2 for w in (w1, w2)] for r in (r1, r2)]


def delta(m, r1, r2, w1, w2, k: Consts):
    return 2 * mpf(m) * (mpf(w1) - mpf(w2)) * mp.pi * (mpf(r1) ** 2 - mpf(r2) ** 2) / k.hbar


def _entropy_bits(lams) -> mpf:
    return -sum(lam * mpmath.log(lam, 2) for lam in lams if lam > 0)


@dataclass(frozen=True)
class Report:
    delta: mpf
    concurrence: mpf
    schmidt: tuple
    entropy_bits: mpf
    answerable: bool
    naive_safe: bool


def report(m, r1, r2, w1, w2, units: str) -> Report:
    """Entanglement of the four-branch state built from exact inputs.

    The concurrence is 2 |det M| of M[j,k] = exp(i phi_jk) / 2; the
    Schmidt pair solves s^2 = (1 +- sqrt(1 - C^2)) / 2.
    """
    k = consts(units)
    phi_rough = phases(m, r1, r2, w1, w2, k)
    with mp.workdps(_digits(*(p for row in phi_rough for p in row))):
        k = consts(units)
        phi = phases(m, r1, r2, w1, w2, k)
        det = (mpmath.expj(phi[0][0] + phi[1][1]) - mpmath.expj(phi[0][1] + phi[1][0])) / 4
        conc = min(mpf(1), 2 * abs(det))
        gap = mpmath.sqrt(max(mpf(0), 1 - conc * conc))
        lams = ((1 + gap) / 2, (1 - gap) / 2)
        d = delta(m, r1, r2, w1, w2, k)
        biggest = max(abs(p) for row in phi for p in row)
        return Report(
            delta=d,
            concurrence=conc,
            schmidt=(mpmath.sqrt(lams[0]), mpmath.sqrt(lams[1])),
            entropy_bits=_entropy_bits(lams),
            answerable=_fits(abs(d)),
            naive_safe=_fits(biggest),
        )


def _fits(magnitude) -> bool:
    return magnitude * ULP_SHARE * SLACK <= MAXIMAL_TOL


def phases_fit(m, r1, r2, w1, w2, units: str) -> bool:
    """Whether every branch phase rounds to a double within MAXIMAL_TOL."""
    return _fits(max(abs(p) for row in phases(m, r1, r2, w1, w2, consts(units)) for p in row))


def amplitudes(m, r1, r2, w1, w2, units: str):
    """Exact amplitudes exp(i phi_jk) / 2, answerability from max |phi_jk|."""
    rough = phases(m, r1, r2, w1, w2, consts(units))
    flat = [p for row in rough for p in row]
    with mp.workdps(_digits(*flat)):
        phi = phases(m, r1, r2, w1, w2, consts(units))
        amps = [[mpmath.expj(p) / 2 for p in row] for row in phi]
    return amps, _fits(max(abs(p) for p in flat))


def concurrence_at(m, r1, r2, w1, w2, units: str) -> mpf:
    k = consts(units)
    rough = delta(m, r1, r2, w1, w2, k)
    with mp.workdps(_digits(rough)):
        return abs(mpmath.sin(delta(m, r1, r2, w1, w2, consts(units)) / 2))


def regime(omega, r, units: str) -> tuple[mpf, str]:
    """Rim speed beta = |omega| r / c and its band."""
    with mp.workdps(DPS):
        beta = abs(mpf(omega)) * mpf(r) / consts(units).c
    if beta >= ERROR_BETA:
        return beta, "error"
    if beta > WARN_BETA:
        return beta, "warn"
    return beta, "ok"


# -- solvers ---------------------------------------------------------------

def exact_omega2(m, r1, r2, w1, kk: int, units: str):
    """omega2 giving delta = (2k+1) pi exactly; None when none exists."""
    if m <= 0 or r1 == r2:
        return None
    k = consts(units)
    with mp.workdps(DPS + 20):
        gap = mp.pi * (mpf(r1) ** 2 - mpf(r2) ** 2)
        return mpf(w1) - (2 * kk + 1) * mp.pi * k.hbar / (2 * mpf(m) * gap)


def exact_r2(m, r1, w1, w2, kk: int, units: str):
    """r2 giving delta = (2k+1) pi exactly; None when none exists."""
    if m <= 0 or w1 == w2:
        return None
    k = consts(units)
    with mp.workdps(DPS + 20):
        rad = mpf(r1) ** 2 - (2 * kk + 1) * k.hbar / (2 * mpf(m) * (mpf(w1) - mpf(w2)))
        return None if rad < 0 else mpmath.sqrt(rad)


def _neighbours(x: float):
    """x and the doubles SLACK ulps either side of it."""
    return (x - SLACK * math.ulp(x), x, x + SLACK * math.ulp(x))


@dataclass(frozen=True)
class SolverCase:
    solvable: bool     # an exact solution exists inside the linear regime
    answerable: bool   # every double within SLACK ulps reaches concurrence 1 - tol
    exact: mpf | None


def solver_case(target: str, m, r1, other, w1, kk: int, units: str) -> SolverCase:
    """Classify a solve request; `other` is r2 (omega2 target) or omega2."""
    if target == "omega2":
        x = exact_omega2(m, r1, other, w1, kk, units)
        if x is None or regime(x, max(r1, other), units)[1] == "error":
            return SolverCase(False, False, x)
        conc = lambda v: concurrence_at(m, r1, other, w1, v, units)  # noqa: E731
    else:
        x = exact_r2(m, r1, w1, other, kk, units)
        if x is None:
            return SolverCase(False, False, None)
        conc = lambda v: concurrence_at(m, r1, v, w1, other, units)  # noqa: E731
    worst = min(conc(v) for v in _neighbours(float(x)))
    return SolverCase(True, 1 - worst <= MAXIMAL_TOL, x)


def solver_value_ok(target: str, m, r1, other, w1, value: float, units: str) -> bool:
    """|delta| mod 2 pi of the returned value equals pi to the package's tolerance."""
    if not math.isfinite(value):
        return False
    if target == "omega2":
        conc = concurrence_at(m, r1, other, w1, value, units)
    else:
        conc = concurrence_at(m, r1, value, w1, other, units)
    return 1 - conc <= MAXIMAL_TOL


# -- comparisons -----------------------------------------------------------

def close_abs(got: float, want) -> bool:
    return abs(mpf(got) - want) <= MAXIMAL_TOL


def close_rel(got: float, want, scale=None) -> bool:
    """Relative agreement; `scale` replaces |want| for entries of a matrix."""
    ref = abs(want) if scale is None else scale
    return abs(mpf(got) - want) <= REL_TOL * ref


def close_delta(got: float, want) -> bool:
    """delta agrees to MAXIMAL_TOL absolute or REL_TOL relative, whichever is looser."""
    return abs(mpf(got) - want) <= max(mpf(MAXIMAL_TOL), REL_TOL * abs(want))


def report_ok(got, want: Report) -> bool:
    """Check (delta, concurrence, s1, s2, entropy, maximal) against the oracle.

    Entanglement figures are judged only on answerable inputs; delta, a plain
    product of the inputs, is judged everywhere.
    """
    d, conc, s1, s2, ent, maximal = got
    if not close_delta(d, want.delta):
        return False
    if not want.answerable:
        return True
    if not all(close_abs(g, w) for g, w in zip((conc, s1, s2, ent),
                                                (want.concurrence, *want.schmidt, want.entropy_bits))):
        return False
    slack = abs(abs(1 - want.concurrence) - MAXIMAL_TOL)
    return slack < 2 ** -40 or maximal == (1 - want.concurrence <= MAXIMAL_TOL)


# -- other stages ----------------------------------------------------------

def phase_figures(m, omega, r, units: str) -> dict:
    k = consts(units)
    with mp.workdps(DPS + 10):
        rim = mpf(omega) * mpf(r) / k.c
        return {
            "phi": 2 * mpf(m) * mpf(omega) * mp.pi * mpf(r) ** 2 / k.hbar,
            "t_loop": None if omega == 0 else 2 * mp.pi / abs(mpf(omega)),
            "area": mp.pi * mpf(r) ** 2,
            "h00": rim * rim,
        }


def relative_phase(m, omega, r1, r2, units: str):
    k = consts(units)
    with mp.workdps(DPS + 10):
        return 2 * mpf(m) * mpf(omega) * mp.pi * (mpf(r2) ** 2 - mpf(r1) ** 2) / k.hbar


def disk_metric(omega, r, units: str):
    """(g, full): the rotating-disk metric and g minus the flat background."""
    k = consts(units)
    with mp.workdps(DPS + 10):
        rim = mpf(omega) * mpf(r) / k.c
        cross = mpf(omega) * mpf(r) ** 2 / k.c
        g = [[mpf(0)] * 4 for _ in range(4)]
        g[0][0], g[1][1], g[2][2], g[3][3] = -1 + rim * rim, mpf(1), mpf(r) ** 2, mpf(1)
        g[0][2] = g[2][0] = cross
        full = [[mpf(0)] * 4 for _ in range(4)]
        full[0][0] = rim * rim
        full[0][2] = full[2][0] = cross
        return g, full


def bohr(n: int):
    """(r, omega, area) of Bohr orbit n in SI units."""
    k = consts("si")
    with mp.workdps(DPS + 10):
        r = n * n * k.a0
        return r, k.alpha * k.c / (n ** 3 * k.a0), mp.pi * r * r


def hydrogen_figures(n: int) -> dict:
    k = consts("si")
    r, omega, area = bohr(n)
    with mp.workdps(DPS + 10):
        estimate = k.m_e * omega * area / k.hbar
        return {"r": r, "omega": omega, "area": area, "beta": omega * r / k.c,
                "estimate": estimate, "loop_phase": 2 * estimate}


def hydrogen_pair(n1: int, n2: int) -> Report:
    """Report for an electron across orbits n1, n2, from exact orbit figures."""
    (ra, wa, _), (rb, wb, _) = bohr(n1), bohr(n2)
    return report(consts("si").m_e, ra, rb, wa, wb, "si")


def constants_table(units: str) -> dict:
    k = consts(units)
    return {"hbar": k.hbar, "c": k.c, "m_e": k.m_e, "a0": k.a0, "alpha": k.alpha}
