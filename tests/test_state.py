import math

import numpy as np
import pytest
from helpers import (
    concurrence,
    entanglement_entropy,
    random_config,
    schmidt_decompose,
    svd_concurrence,
)

from qsagnac import (
    InterferometerConfig,
    PureState2x2,
    SweepSpec,
    UnitSystem,
    assemble_full_state,
    concurrence_from_delta,
    constants_for,
    entanglement_report,
    entangling_phase_value,
    entropy_from_concurrence,
    loop_phase,
    report_from_parameters,
)

NATURAL = constants_for(UnitSystem.NATURAL)

# Configuration whose branch phases are (20, 21, 40, 42) pi: maximal entanglement.
WORKED = InterferometerConfig(
    m=1000.0, r1=1.0, r2=math.sqrt(2.0), omega1=0.01, omega2=0.0105,
    units=UnitSystem.NATURAL,
)

# All branch phases are even multiples of pi: stays a product state.
PRODUCT = InterferometerConfig(
    m=1000.0, r1=1.0, r2=2.0, omega1=0.001, omega2=0.002,
    units=UnitSystem.NATURAL,
)


def state_with_delta(delta):
    """Minimal four-branch state whose entangling phase is delta."""
    return PureState2x2(0.5 * np.array([[1, 1], [1, np.exp(1j * delta)]]))


def test_full_state_of_worked_config():
    state = assemble_full_state(WORKED)
    target = 0.5 * np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex)
    assert np.allclose(state.amplitudes, target, atol=1e-11)
    assert state.row_labels == ("r1", "r2")
    assert state.col_labels == ("omega1", "omega2")


def test_amplitudes_match_numpy_exp_bitwise():
    # the state subcommand prints these bits, so cmath.exp must give what
    # 0.5 * np.exp(1j * phases) gives, signed zeros included
    rng = np.random.default_rng(67)
    configs = [random_config(rng) for _ in range(300)]
    configs += [  # r1 = 0 gives zero phases, -0.0 at negative frequencies
        InterferometerConfig(m=2.0, r1=0.0, r2=1.5, omega1=o1, omega2=o2,
                             units=UnitSystem.NATURAL)
        for o1, o2 in [(0.01, 0.02), (-0.01, 0.02), (0.01, -0.02), (-0.01, -0.02)]
    ]
    for cfg in configs:
        phases = np.array([
            [loop_phase(cfg.m, o, r, NATURAL) for o in (cfg.omega1, cfg.omega2)]
            for r in (cfg.r1, cfg.r2)
        ])
        expected = 0.5 * np.exp(1j * phases)
        got = np.array(assemble_full_state(cfg).amplitudes)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), cfg


def test_full_state_with_trivial_phases_is_product():
    state = assemble_full_state(PRODUCT)
    assert np.allclose(state.amplitudes, 0.5, atol=1e-11)
    assert concurrence(state) <= 1e-10
    assert entanglement_entropy(state) <= 1e-10


def test_full_state_requires_nonzero_frequencies():
    cfg = InterferometerConfig(
        m=1.0, r1=1.0, r2=2.0, omega1=0.0, omega2=0.001, units=UnitSystem.NATURAL
    )
    with pytest.raises(ValueError):
        assemble_full_state(cfg)


def test_phases_past_double_resolution_are_refused():
    # SI: delta = -1.25e16 rad and branch phases near 7.2e19 rad, where a
    # double no longer fixes a phase mod 2 pi
    si = InterferometerConfig(m=1e-14, r1=0.01, r2=0.011, omega1=1e3, omega2=999.0)
    with pytest.raises(ValueError, match="double resolution"):
        entanglement_report(si)
    with pytest.raises(ValueError, match="double resolution"):
        assemble_full_state(si)
    # branch phases that overflow to inf are refused before np.exp
    huge = InterferometerConfig(
        m=1e308, r1=1.0, r2=2.0, omega1=0.01, omega2=0.02, units=UnitSystem.NATURAL
    )
    with pytest.raises(ValueError, match="double resolution"):
        assemble_full_state(huge)
    # the bound is |phase| 2^-50 <= 1e-9, |phase| <= 1.1259e6 rad; here
    # delta = m pi
    assert report_from_parameters(3.58e5, 1.0, 0.0, 0.5, 0.0, NATURAL).delta < 1.1259e6
    with pytest.raises(ValueError, match="double resolution"):
        report_from_parameters(3.59e5, 1.0, 0.0, 0.5, 0.0, NATURAL)
    # the same bound on the largest branch phase, here m pi at r1 and omega1
    cfg = InterferometerConfig(3.58e5, 1.0, 0.5, 0.5, 0.25, units=UnitSystem.NATURAL)
    assemble_full_state(cfg)
    with pytest.raises(ValueError, match="double resolution"):
        assemble_full_state(cfg._replace(m=3.59e5))


def test_entangling_phase_degenerate_cases():
    same_omega = InterferometerConfig(
        m=10.0, r1=0.5, r2=1.0, omega1=0.01, omega2=0.01, units=UnitSystem.NATURAL
    )
    same_radius = InterferometerConfig(
        m=10.0, r1=1.0, r2=1.0, omega1=0.01, omega2=0.02, units=UnitSystem.NATURAL
    )
    assert entangling_phase_value(*same_omega[:5], same_omega.constants) == 0.0
    assert entangling_phase_value(*same_radius[:5], same_radius.constants) == 0.0


def test_entangling_phase_of_worked_config_is_pi():
    delta = entangling_phase_value(*WORKED[:5], WORKED.constants)
    assert math.isclose(delta, math.pi, rel_tol=1e-12)


def test_concurrence_examples():
    product = PureState2x2(0.5 * np.ones((2, 2)))
    maximal = PureState2x2(0.5 * np.array([[1, 1], [1, -1]], dtype=complex))
    maximal_swapped = PureState2x2(0.5 * np.array([[1, -1], [1, 1]], dtype=complex))
    assert concurrence(product) == 0.0
    assert concurrence(maximal) == 1.0
    assert concurrence(maximal_swapped) == 1.0


def test_concurrence_from_delta():
    assert concurrence_from_delta(0.0) == 0.0
    assert concurrence_from_delta(math.pi) == 1.0
    # hydrogen (1, 2) value: brute-force oracle via state assembly + SVD
    delta = -26.25 * math.pi
    brute = svd_concurrence(state_with_delta(delta))
    assert math.isclose(concurrence_from_delta(delta), brute, abs_tol=1e-10)
    assert math.isclose(concurrence_from_delta(delta), math.sin(math.pi / 8), abs_tol=1e-9)


def test_schmidt_decompose():
    product = PureState2x2(0.5 * np.ones((2, 2)))
    maximal = PureState2x2(0.5 * np.array([[1, 1], [1, -1]], dtype=complex))
    s = schmidt_decompose(product)
    assert math.isclose(s[0], 1.0, abs_tol=1e-12)
    assert math.isclose(s[1], 0.0, abs_tol=1e-12)
    s = schmidt_decompose(maximal)
    assert math.isclose(s[0], math.sqrt(0.5), abs_tol=1e-12)
    assert math.isclose(s[1], math.sqrt(0.5), abs_tol=1e-12)


def test_schmidt_for_partial_entanglement_matches_half_angle_oracle():
    # concurrence sin(pi/8): lambda_pm = (1 +- cos(pi/8))/2, roots cos/sin(pi/16)
    state = state_with_delta(-26.25 * math.pi)
    s1, s2 = schmidt_decompose(state)
    c = concurrence(state)
    gap = math.sqrt(1.0 - c * c)
    assert math.isclose(s1, math.sqrt((1.0 + gap) / 2.0), abs_tol=1e-12)
    assert math.isclose(s2, math.sqrt((1.0 - gap) / 2.0), abs_tol=1e-12)
    assert math.isclose(s1, 0.98079, abs_tol=1e-5)
    assert math.isclose(s2, 0.19509, abs_tol=1e-5)
    assert math.isclose(s1 * s1 + s2 * s2, 1.0, abs_tol=1e-12)


def test_entropy_examples():
    product = PureState2x2(0.5 * np.ones((2, 2)))
    maximal = PureState2x2(0.5 * np.array([[1, 1], [1, -1]], dtype=complex))
    assert entanglement_entropy(product) <= 1e-12
    assert math.isclose(entanglement_entropy(maximal), 1.0, abs_tol=1e-12)
    # eigenvalue oracle (1 +- cos(pi/8))/2 -> 0.23332662865093506 bits
    state = state_with_delta(-26.25 * math.pi)
    assert math.isclose(entanglement_entropy(state), 0.23332662865093506, abs_tol=1e-9)


def test_report_maximal_flag():
    assert entanglement_report(WORKED).maximal
    assert not entanglement_report(PRODUCT).maximal
    # omega1 - omega2 = -0.0004995 puts delta at 0.999 pi:
    # 1 - |sin(0.4995 pi)| = 1.23e-6, well above the tolerance
    near = InterferometerConfig(
        m=1000.0, r1=1.0, r2=math.sqrt(2.0), omega1=0.01, omega2=0.0104995,
        units=UnitSystem.NATURAL,
    )
    delta = entangling_phase_value(*near[:5], near.constants)
    assert math.isclose(delta, 0.999 * math.pi, rel_tol=1e-9)
    assert not entanglement_report(near).maximal


def test_unnormalized_states_are_rejected():
    with pytest.raises(ValueError):
        PureState2x2(0.4 * np.ones((2, 2)))
    with pytest.raises(ValueError):
        PureState2x2(np.ones((2, 2)))
    with pytest.raises(ValueError, match="normalized"):  # a nan norm
        PureState2x2([[math.nan, 0.5], [0.5, 0.5]])
    # normalized, but not 2x2
    for amps in (np.full(4, 0.5), [[0.5, 0.5, 0.5], [0.5]]):
        with pytest.raises(ValueError, match="2x2"):
            PureState2x2(amps)


def test_config_validation():
    with pytest.raises(ValueError):
        InterferometerConfig(m=0.0, r1=1.0, r2=1.0, omega1=0.01, omega2=0.02,
                             units=UnitSystem.NATURAL)
    with pytest.raises(ValueError):
        InterferometerConfig(m=1.0, r1=-1.0, r2=1.0, omega1=0.01, omega2=0.02,
                             units=UnitSystem.NATURAL)
    with pytest.raises(ValueError):
        # rim speed 1.5c at (omega2, r2)
        InterferometerConfig(m=1.0, r1=1.0, r2=1.5, omega1=0.01, omega2=1.0,
                             units=UnitSystem.NATURAL)
    # an infinite mass is refused, like a nan one
    for bad in ([math.inf, 1.0, 2.0, 0.01, 0.02],
                [math.nan, 1.0, 2.0, 0.01, 0.02], [1.0, math.nan, 2.0, 0.01, 0.02],
                [1.0, 1.0, math.nan, 0.01, 0.02], [1.0, 1.0, 2.0, math.nan, 0.02],
                [1.0, 1.0, 2.0, 0.01, math.nan]):
        with pytest.raises(ValueError):
            InterferometerConfig(*bad, UnitSystem.NATURAL)
    # a unit string is not a unit system; it used to be checked against c = 1
    with pytest.raises(ValueError, match="unit system"):
        InterferometerConfig(1e-21, 0.01, 0.011, 1e3, 999.0, units="si")


@pytest.mark.parametrize(
    "record,bad",
    [
        (NATURAL, {"alpha": 1.0}),
        (WORKED, {"m": -1.0}),
        (state_with_delta(math.pi), {"amplitudes": [[1, 0], [0, 1]]}),
        (SweepSpec(varying="r2", start=1.0, stop=2.0, count=3, base=WORKED),
         {"count": 0}),
    ],
    ids=["ConstantSet", "InterferometerConfig", "PureState2x2", "SweepSpec"],
)
def test_replace_and_make_validate(record, bad):
    # NamedTuple's own _make and _replace build the tuple without __new__
    assert type(record._replace()) is type(record)
    with pytest.raises(ValueError):
        record._replace(**bad)
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **bad}.values())


def test_states_are_normalized():
    rng = np.random.default_rng(41)
    for _ in range(300):
        state = assemble_full_state(random_config(rng))
        assert abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0) <= 1e-12


def test_concurrence_law_against_svd_oracle():
    rng = np.random.default_rng(43)
    for _ in range(300):
        cfg = random_config(rng)
        law = concurrence_from_delta(entangling_phase_value(*cfg[:5], cfg.constants))
        oracle = svd_concurrence(assemble_full_state(cfg))
        assert math.isclose(law, oracle, abs_tol=1e-10)


def test_local_phase_invariance():
    rng = np.random.default_rng(47)
    for _ in range(100):
        state = assemble_full_state(random_config(rng))
        phases = np.exp(1j * rng.uniform(0.0, math.tau, size=4))
        dressed = PureState2x2(
            state.amplitudes * phases[:2, None] * phases[None, 2:]
        )
        assert abs(concurrence(dressed) - concurrence(state)) <= 1e-12
        assert abs(entanglement_entropy(dressed) - entanglement_entropy(state)) <= 1e-12
        for a, b in zip(schmidt_decompose(dressed), schmidt_decompose(state)):
            assert abs(a - b) <= 1e-12


def test_swap_symmetry():
    rng = np.random.default_rng(53)
    for _ in range(100):
        cfg = random_config(rng)
        swapped_r = InterferometerConfig(
            m=cfg.m, r1=cfg.r2, r2=cfg.r1, omega1=cfg.omega1, omega2=cfg.omega2,
            units=cfg.units,
        )
        swapped_o = InterferometerConfig(
            m=cfg.m, r1=cfg.r1, r2=cfg.r2, omega1=cfg.omega2, omega2=cfg.omega1,
            units=cfg.units,
        )
        delta = entangling_phase_value(*cfg[:5], cfg.constants)
        assert entangling_phase_value(*swapped_r[:5], swapped_r.constants) == -delta
        assert entangling_phase_value(*swapped_o[:5], swapped_o.constants) == -delta
        base = entanglement_report(cfg)
        for other in (swapped_r, swapped_o):
            report = entanglement_report(other)
            assert abs(report.concurrence - base.concurrence) <= 1e-10
            assert abs(report.entropy_bits - base.entropy_bits) <= 1e-10


def test_frequency_shift_invariance():
    rng = np.random.default_rng(59)
    for _ in range(200):
        cfg = random_config(rng)
        shift = rng.uniform(-0.005, 0.005)
        shifted = InterferometerConfig(
            m=cfg.m, r1=cfg.r1, r2=cfg.r2,
            omega1=cfg.omega1 + shift, omega2=cfg.omega2 + shift,
            units=cfg.units,
        )
        assert math.isclose(
            entangling_phase_value(*shifted[:5], shifted.constants),
            entangling_phase_value(*cfg[:5], cfg.constants),
            rel_tol=1e-10, abs_tol=1e-14,
        )


def test_entropy_is_strictly_increasing_in_concurrence():
    grid = np.linspace(0.0, 1.0, 1000)
    entropies = [entropy_from_concurrence(float(c)) for c in grid]
    assert entropies[0] == 0.0
    assert math.isclose(entropies[-1], 1.0, abs_tol=1e-12)
    assert all(b > a for a, b in zip(entropies, entropies[1:]))


def test_report_is_consistent_with_individual_measures():
    # The report is closed-form in delta; the state measures go through the
    # assembled amplitudes and an SVD, so they agree to rounding, not bits.
    report = entanglement_report(WORKED)
    state = assemble_full_state(WORKED)
    assert report.delta == entangling_phase_value(*WORKED[:5], WORKED.constants)
    assert abs(report.concurrence - concurrence(state)) <= 1e-12
    for a, b in zip(report.schmidt, schmidt_decompose(state)):
        assert abs(a - b) <= 1e-12
    assert abs(report.entropy_bits - entanglement_entropy(state)) <= 1e-12
    assert report.maximal
    assert abs(report.concurrence - 2.0 * report.schmidt[0] * report.schmidt[1]) <= 1e-10
