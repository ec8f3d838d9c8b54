"""Unit systems, pinned constants, the linear-regime guard and the config gate.

Constants are hard-coded CODATA 2018 values so every run reproduces
bit-identical numbers; nothing is read from the environment.

    hbar   1.0545718176461565e-34 J s   (h / 2pi with h = 6.62607015e-34 exact)
    c      2.99792458e8 m/s             (exact)
    m_e    9.1093837015e-31 kg
    a0     5.29177210903e-11 m
    alpha  7.2973525693e-3

Natural units set hbar = c = 1 and keep alpha at its measured value; the
electron scales are m_e = 1 and a0 = 1/alpha, which preserves the exact
relation a0 = hbar / (m_e c alpha) in both systems.
"""

import math
import operator
from collections import namedtuple


class _MemberType(type):
    """Cls(value) is one dict lookup, and iterating Cls gives its members in
    declaration order."""

    def __call__(cls, value):
        try:
            return cls._lookup[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(f"{value!r} is not a valid {cls.__qualname__}") from None

    def __iter__(cls):
        return iter(cls._members)


class _Members(metaclass=_MemberType):
    """A fixed set of named values, with the part of Enum's surface the
    package uses. Each public class attribute of a subclass becomes a member
    holding .name, and .value and ._value_ as plain attributes."""

    def __init_subclass__(cls):
        pairs = [(k, v) for k, v in vars(cls).items() if not k.startswith("_")]
        cls._members = tuple(object.__new__(cls) for _ in pairs)
        for member, (name, value) in zip(cls._members, pairs):
            vars(member).update(name=name, value=value, _value_=value)
            setattr(cls, name, member)
        cls._lookup = {key: m for m in cls._members for key in (m.value, m)}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} of a {type(self).__name__}")

    def __repr__(self):
        return f"<{type(self).__name__}.{self.name}: {self.value!r}>"

    def __str__(self):
        return f"{type(self).__name__}.{self.name}"

    def __reduce__(self):  # so pickle, copy and deepcopy give the same member
        return type(self), (self.value,)


class UnitSystem(_Members):
    SI = "si"
    NATURAL = "natural"


class _Checked:
    """Named-tuple base whose _make, and so _replace, runs __new__'s checks.

    A record with no checks is built as tuple.__new__(Record, values), which
    skips the __new__ that namedtuple writes in Python; a _Checked record is
    built that way only as cls inside its own __new__.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ConstantSet(_Checked, namedtuple("ConstantSet", "hbar c m_e a0 alpha")):
    """One constant table:

        hbar   reduced Planck constant [J s]
        c      speed of light [m/s]
        m_e    electron mass [kg]
        a0     Bohr radius [m]
        alpha  fine-structure constant (dimensionless)
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(0.0 < x < math.inf for x in self):  # also refuses nan
            raise ValueError("physical constants must be finite and strictly positive")
        if self.alpha >= 1.0:
            raise ValueError("fine-structure constant must be below 1")
        return self


_ALPHA = 7.2973525693e-3

_SI = ConstantSet(
    hbar=6.62607015e-34 / (2.0 * math.pi),  # = 1.0545718176461565e-34
    c=2.99792458e8,
    m_e=9.1093837015e-31,
    a0=5.29177210903e-11,
    alpha=_ALPHA,
)

_NATURAL = ConstantSet(hbar=1.0, c=1.0, m_e=1.0, a0=1.0 / _ALPHA, alpha=_ALPHA)

# bound once: on Python 3.11 a read off the class is a type lookup each time
_UNITS_SI, _UNITS_NATURAL = UnitSystem.SI, UnitSystem.NATURAL


def constants_for(units: UnitSystem) -> ConstantSet:
    """Fixed constant table for a unit system; ValueError for anything else."""
    if units is _UNITS_SI:
        return _SI
    if units is _UNITS_NATURAL:
        return _NATURAL
    raise ValueError(f"unknown unit system: {units!r}")


class RegimeStatus(_Members):
    OK = "ok"
    WARN = "warn"
    ERROR = "error"


# beta    rim speed as a fraction of c: |omega| r / c
# status  a RegimeStatus
RegimeCheck = namedtuple("RegimeCheck", "beta status")


# h00 = beta^2, so beta = 0.1 keeps the perturbation at or below 1%;
# beta >= 1 is a superluminal rim and is rejected outright.
WARN_BETA = 0.1
ERROR_BETA = 1.0


def regime_check(omega: float, r: float, consts: ConstantSet) -> RegimeCheck:
    """Classify how far (omega, r) sits from the flat-background regime.

    beta <= 0.1 is Ok, 0.1 < beta < 1 is Warn (computation proceeds),
    beta >= 1 is Error, and so is a nan beta. The one place the rim speed
    is computed and compared with WARN_BETA and ERROR_BETA.
    """
    if not r >= 0:  # also refuses a nan radius
        raise ValueError("radius must be non-negative")
    beta = abs(omega) * r / consts.c
    if not beta < ERROR_BETA:
        return tuple.__new__(RegimeCheck, (beta, RegimeStatus.ERROR))
    if beta > WARN_BETA:
        return tuple.__new__(RegimeCheck, (beta, RegimeStatus.WARN))
    return tuple.__new__(RegimeCheck, (beta, RegimeStatus.OK))


def require_linear_regime(omega: float, r: float, consts: ConstantSet) -> RegimeCheck:
    """regime_check that raises ValueError when the status is Error or when
    r^2, which every area and metric component carries, overflows a double."""
    check = regime_check(omega, r, consts)
    if check.status is RegimeStatus.ERROR:
        raise ValueError(f"rim speed beta = {check.beta:g} is outside the linear regime")
    if math.isinf(r * r):
        raise ValueError(f"radius {r:g} is too large: r^2 overflows a double")
    return check


def _require_mass(m: float) -> None:
    if not 0 < m < math.inf:  # also refuses a nan mass
        raise ValueError("mass must be positive and finite")


def _require_integer(x, name: str) -> int:
    # operator.index, unlike int(), refuses 3.0 as well as 2.5
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {x!r}") from None


def require_valid_config(
    m: float, r1: float, r2: float, omega1: float, omega2: float, consts: ConstantSet
) -> RegimeCheck:
    """Raise ValueError unless the parameters form a valid configuration:
    positive finite mass, non-negative radii, every branch rim below light
    speed, and max(r1, r2)^2 finite.

    Returns the regime of the fastest rim. A nan anywhere is refused.
    """
    _require_mass(m)
    if not (r1 >= 0 and r2 >= 0):
        raise ValueError("radii must be non-negative")
    # the maxima below would drop a nan omega2, so test both frequencies here
    if math.isnan(omega1) or math.isnan(omega2):
        raise ValueError("frequencies must be numbers")
    # each maximum picks as max(a, b) does (b only if b > a); the two
    # builtin calls took about a fifth of this gate's time
    w1, w2 = abs(omega1), abs(omega2)
    return require_linear_regime(w2 if w2 > w1 else w1, r2 if r2 > r1 else r1, consts)
