import copy
import math
import pickle
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from numpy.testing import assert_allclose

from zenoion.dynamics import (
    BlockSystem,
    VibronicState,
    _spectral_propagator,
    build_block,
    classify_block,
    level_probabilities,
    propagate_analytic,
    propagate_oracle,
    survival_probability,
)
from zenoion.fock import (
    CouplingConstants,
    DegenerateCouplingError,
    ModeVector,
    SidebandPattern,
)

from .oracles import expm_oracle, hamiltonian

coupling_values = st.complex_numbers(
    min_magnitude=1e-2, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
times = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def three_level_block(alpha: complex, beta: complex) -> BlockSystem:
    """Carrier-pattern block with prescribed couplings."""
    return build_block(
        ModeVector(0, 0, 0),
        SidebandPattern((0, 0, 0), (0, 0, 0)),
        CouplingConstants(alpha, beta),
    )


class TestClassifyBlock:
    def test_one_dimensional_when_first_sideband_fails(self):
        chain = classify_block(ModeVector(0, 0, 0), SidebandPattern((1, 0, 0), (0, 0, 0)))
        assert len(chain) == 1
        assert chain == ((ModeVector(0, 0, 0), 1),)

    def test_two_dimensional_when_second_sideband_fails(self):
        chain = classify_block(ModeVector(1, 0, 0), SidebandPattern((1, 0, 0), (1, 0, 0)))
        assert len(chain) == 2
        assert chain[1] == (ModeVector(0, 0, 0), 2)

    def test_three_dimensional_full_chain(self):
        chain = classify_block(ModeVector(2, 1, 1), SidebandPattern((1, 0, 0), (1, 1, 1)))
        assert len(chain) == 3
        assert chain[-1] == (ModeVector(0, 0, 0), 3)

    @given(
        n=st.tuples(*(st.integers(0, 5),) * 3),
        r=st.tuples(*(st.integers(0, 2),) * 3),
        l=st.tuples(*(st.integers(0, 2),) * 3),
    )
    def test_dimension_rule(self, n, r, l):
        chain = classify_block(ModeVector.of(n), SidebandPattern(r, l))
        first = all(nv >= rv for nv, rv in zip(n, r))
        second = first and all(nv - rv >= lv for nv, rv, lv in zip(n, r, l))
        expected = 3 if second else (2 if first else 1)
        assert len(chain) == expected


class TestBuildBlock:
    def test_unit_couplings(self):
        block = build_block(
            ModeVector(1, 0, 0),
            SidebandPattern((1, 0, 0), (0, 0, 0)),
            CouplingConstants(1.0, 1.0),
        )
        assert block.dimension == 3
        assert block.coupling_12 == pytest.approx(1.0)
        assert block.coupling_23 == pytest.approx(1.0)
        assert block.chi == pytest.approx(1.0)
        assert block.angular_frequency == pytest.approx(math.sqrt(2))

    def test_degenerate_flag(self):
        block = three_level_block(0.0, 1.0)
        assert block.is_degenerate
        with pytest.raises(DegenerateCouplingError):
            _ = block.chi

    def test_one_dimensional_block_is_static(self):
        block = build_block(
            ModeVector(0, 0, 0),
            SidebandPattern((1, 0, 0), (0, 0, 0)),
            CouplingConstants(1.0, 1.0),
        )
        assert block.dimension == 1
        assert block.coupling_12 == block.coupling_23 == 0j
        assert block.angular_frequency == 0.0
        assert block.chi is None
        state = VibronicState.basis_state(1, 0)
        evolved = propagate_analytic(block, state, 5.0)
        assert_allclose(evolved.amplitudes, state.amplitudes)

    def test_missing_chain_truncates_instead_of_raising(self):
        block = build_block(
            ModeVector(1, 0, 0),
            SidebandPattern((1, 0, 0), (1, 0, 0)),
            CouplingConstants(2.0, 3.0),
        )
        assert block.dimension == 2
        assert block.coupling_23 == 0j
        assert block.chi == 0

    def test_coupling_norm_combines_both_couplings(self):
        block = three_level_block(3.0, 4.0)
        assert block.angular_frequency == pytest.approx(5.0)
        assert hamiltonian(block)[0, 1] == 3.0
        assert hamiltonian(block)[1, 2] == 4.0


class TestVibronicState:
    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            VibronicState(np.array([1.0, 1.0]))

    def test_basis_state(self):
        state = VibronicState.basis_state(3, 1)
        assert_allclose(state.amplitudes, [0, 1, 0])

    @pytest.mark.parametrize("dimension", [-1, 0, 4, 5])
    def test_basis_state_rejects_dimension_outside_block_range(self, dimension):
        with pytest.raises(ValueError, match=r"block dimension must be 1, 2 or 3"):
            VibronicState.basis_state(dimension, 0)

    def test_amplitudes_are_read_only(self):
        state = VibronicState.basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    @pytest.mark.parametrize(
        "amplitudes",
        [
            [math.nan, 0.0, 0.0],
            [complex(0.0, math.nan)],
            [0.6, math.nan],
            [math.inf, 0.0, 0.0],
            [-math.inf, 1.0],
            [complex(math.inf, math.inf)],
            [complex(math.nan, math.inf), 0.0],
            [0.6, 0.8, complex(-math.inf, math.nan)],
            [1.0 + 2e-9, 0.0, 0.0],
            [1.0 - 2e-9],
            [0.6 * (1.0 + 2e-9), 0.8j * (1.0 + 2e-9)],
            [1.0 + 1.5e-9],
            [1.0 - 1.5e-9, 0.0],
            [0.6 * (1.0 + 1.5e-9), 0.8j * (1.0 + 1.5e-9)],
            [(0.36 + 0.48j) * (1.0 + 1.5e-9), 0.0, (-0.48 + 0.64j) * (1.0 + 1.5e-9)],
        ],
    )
    def test_rejects_non_finite_and_off_norm_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match=r"^state must be normalized, got norm "):
            VibronicState(np.array(amplitudes, dtype=complex))

    @pytest.mark.parametrize(
        "amplitudes",
        [
            [1.0 + 5e-10],
            [1.0 - 5e-10, 0.0],
            [0.6 * (1.0 + 5e-10), 0.8j * (1.0 + 5e-10)],
            [(0.36 + 0.48j) * (1.0 + 5e-10), 0.0, (-0.48 + 0.64j) * (1.0 + 5e-10)],
        ],
    )
    def test_accepts_norm_within_tolerance(self, amplitudes):
        state = VibronicState(np.array(amplitudes))
        assert abs(state.norm - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "amplitudes",
        [
            [0.6, 0.8j],
            (0.6, 0.0, 0.8j),
            [1],
            (True, False),
            ["1", "0"],
            np.array([0.6, 0.8]),
            np.array([-0.0, 0.6, -0.8j]),
            np.array([0.0, 1.0], dtype=np.float32),
            np.array([0.6 + 0j, 0.8j]),
        ],
    )
    def test_accepted_inputs(self, amplitudes):
        state = VibronicState(amplitudes)
        expected = np.array(amplitudes, dtype=complex)
        assert type(state.values) is tuple
        assert all(type(z) is complex for z in state.values)
        assert state.values == tuple(expected.tolist())
        assert state.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "amplitudes",
        [
            "10",
            b"10",
            1.0,
            1j,
            np.array(1.0),
            np.array([[1.0, 0.0]]),
            np.eye(2),
            [[1.0]],
            [],
            np.zeros(0),
            [1.0, 0.0, 0.0, 0.0],
            np.array([1.0, 0.0, 0.0, 0.0]),
        ],
    )
    def test_rejected_shapes(self, amplitudes):
        with pytest.raises(ValueError, match="1-D vector of length 1..3"):
            VibronicState(amplitudes)

    def test_states_are_immutable(self):
        block = three_level_block(1.0, 2.0)
        built = VibronicState([0.6, 0.8j, 0.0])
        for state in (built, propagate_analytic(block, built, 0.4)):
            values = state.values
            for name in ("values", "amplitudes", "norm", "_amplitudes", "other"):
                with pytest.raises(AttributeError):
                    setattr(state, name, (1 + 0j,))
                with pytest.raises(AttributeError):
                    delattr(state, name)
            assert state.values is values

    def test_amplitudes_are_one_read_only_array(self):
        block = three_level_block(1.0, 2.0)
        built = VibronicState(np.array([0.6, 0.8j, 0.0]))
        for state in (built, propagate_analytic(block, built, 0.4)):
            amplitudes = state.amplitudes
            assert not amplitudes.flags.writeable
            assert amplitudes.dtype == complex
            assert amplitudes.tolist() == list(state.values)
            with pytest.raises(ValueError):
                amplitudes[0] = 0.0

    def test_array_input_is_copied(self):
        source = np.array([0.6, 0.8j])
        state = VibronicState(source)
        source[0] = 5.0
        assert state.values == (0.6 + 0j, 0.8j)
        assert state.amplitudes[0] == 0.6

    def test_pickle_round_trip(self):
        # Pickling and both copies rebuild the state through __new__.
        state = VibronicState([0.6, -0.0, 0.8j])
        for copied in (pickle.loads(pickle.dumps(state)), copy.copy(state), copy.deepcopy(state)):
            assert type(copied) is VibronicState
            assert copied.values == state.values
            assert copied.amplitudes.tobytes() == state.amplitudes.tobytes()

    def test_repr_shows_the_values(self):
        assert repr(VibronicState([0.6, 0.8j])) == "VibronicState(((0.6+0j), 0.8j))"

    @given(
        vector=st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=3,
        ),
        alpha=coupling_values,
        beta=coupling_values,
        t=times,
    )
    def test_norm_is_the_checked_norm_bit_for_bit(self, vector, alpha, beta, t):
        # The norm the constructor checks: sqrt of the in-order sum of
        # abs(z) * abs(z), with abs the Python one.
        amplitudes = np.array(vector)
        length = np.linalg.norm(amplitudes)
        assume(length > 0.1)
        state = VibronicState(amplitudes / length)
        block = block_of_dimension(len(vector), alpha, beta)
        for each in (state, propagate_analytic(block, state, t)):
            norm_sq = 0.0
            for z in each.values:
                norm_sq += abs(z) * abs(z)
            assert each.norm == math.sqrt(norm_sq)


def block_of_dimension(dimension: int, alpha: complex, beta: complex) -> BlockSystem:
    """One-, two- or three-level block with the given couplings."""
    n, r, l = {
        1: ((0, 0, 0), (1, 0, 0), (0, 0, 0)),
        2: ((1, 0, 0), (1, 0, 0), (1, 0, 0)),
        3: ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    }[dimension]
    block = build_block(ModeVector.of(n), SidebandPattern(r, l), CouplingConstants(alpha, beta))
    assert block.dimension == dimension
    return block


class TestClosedFormConstants:
    def test_equal_blocks_stay_equal_after_propagation(self):
        one = three_level_block(0.8 + 0.3j, -1.1 + 0.2j)
        two = three_level_block(0.8 + 0.3j, -1.1 + 0.2j)
        propagate_analytic(one, VibronicState.basis_state(3, 0), 0.7)
        assert "_closed_form" in vars(one)
        assert "_closed_form" not in vars(two)
        assert one == two
        assert hash(one) == hash(two)
        assert len({one, two}) == 1
        assert repr(one) == repr(two)
        assert [f.name for f in fields(one)] == [
            "dimension",
            "basis_labels",
            "coupling_12",
            "coupling_23",
            "angular_frequency",
        ]

    def test_constants_are_computed_once(self):
        block = three_level_block(1.0, 2.0)
        state = VibronicState.basis_state(3, 0)
        propagate_analytic(block, state, 0.3)
        first = vars(block)["_closed_form"]
        propagate_analytic(block, state, 1.3)
        assert vars(block)["_closed_form"] is first


class TestPropagation:
    def test_identity_at_time_zero(self):
        block = three_level_block(1.0, 2.0)
        state = VibronicState(np.array([0.6, 0.8j, 0.0]))
        assert_allclose(
            propagate_analytic(block, state, 0.0).amplitudes, state.amplitudes
        )
        assert_allclose(
            propagate_oracle(block, state, 0.0).amplitudes, state.amplitudes, atol=1e-12
        )

    def test_full_period_returns_initial_state(self):
        block = three_level_block(1.0, 3.0)
        period = 2 * math.pi / block.angular_frequency
        state = VibronicState.basis_state(3, 0)
        evolved = propagate_analytic(block, state, period)
        assert abs(np.vdot(state.amplitudes, evolved.amplitudes)) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_middle_state_equal_couplings_quarter_period(self):
        block = three_level_block(1.0, 1.0)
        state = VibronicState.basis_state(3, 1)
        t = (math.pi / 2) / block.angular_frequency
        evolved = propagate_analytic(block, state, t)
        assert_allclose(level_probabilities(evolved), (0.5, 0.0, 0.5), atol=1e-12)
        # third route: numpy's Hermitian eigensolver
        expected = expm_oracle(hamiltonian(block), t) @ state.amplitudes
        assert_allclose(evolved.amplitudes, expected, atol=1e-12)

    def test_min_population_at_half_period(self):
        chi = 2.0
        block = three_level_block(1.0, chi)
        state = VibronicState.basis_state(3, 0)
        t = math.pi / block.angular_frequency
        p1 = level_probabilities(propagate_analytic(block, state, t))[0]
        assert p1 == pytest.approx(((chi**2 - 1) / (chi**2 + 1)) ** 2, abs=1e-12)

    def test_eigenvalues_are_zero_and_plus_minus_norm(self):
        block = three_level_block(0.8 + 0.3j, -1.1 + 0.2j)
        eigenvalues = np.linalg.eigvalsh(hamiltonian(block))
        norm = block.angular_frequency
        assert_allclose(eigenvalues, [-norm, 0.0, norm], atol=1e-12)

    def test_mismatched_state_dimension(self):
        block = three_level_block(1.0, 1.0)
        with pytest.raises(ValueError):
            propagate_analytic(block, VibronicState.basis_state(2, 0), 1.0)

    @given(
        dimension=st.sampled_from([1, 2, 3]),
        alpha=coupling_values | st.just(0j),
        beta=coupling_values | st.just(0j),
        t=times,
        vector=st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=3,
        ),
    )
    def test_oracle_equivalence(self, dimension, alpha, beta, t, vector):
        # Zero couplings give degenerate and zero-frequency blocks.
        amplitudes = np.array(vector[:dimension])
        norm = np.linalg.norm(amplitudes)
        assume(norm > 0.1)
        block = block_of_dimension(dimension, alpha, beta)
        state = VibronicState(amplitudes / norm)
        left = propagate_analytic(block, state, t)
        right = propagate_oracle(block, state, t)
        assert np.max(np.abs(left.amplitudes - right.amplitudes)) <= 1e-10

    def test_zero_frequency_block_is_stationary(self):
        for dimension in (2, 3):
            block = block_of_dimension(dimension, 0.0, 0.0)
            assert block.angular_frequency == 0.0
            state = VibronicState(np.array([0.6, 0.8j, 0.0][:dimension]))
            for propagate in (propagate_analytic, propagate_oracle):
                evolved = propagate(block, state, 4.2)
                np.testing.assert_array_equal(evolved.amplitudes, state.amplitudes)

    @given(
        dimension=st.sampled_from([2, 3]),
        alpha=coupling_values,
        beta=coupling_values,
        t=times | st.floats(min_value=-1e4, max_value=1e4),
    )
    def test_basis_columns_satisfy_symmetry_bit_for_bit(self, dimension, alpha, beta, t):
        # exp(-i H t) of this tridiagonal H has U10 = -conj(U01),
        # U21 = -conj(U12), U20 = conj(U02) and U11 = cos(wt) exactly.
        block = block_of_dimension(dimension, alpha, beta)
        columns = [
            propagate_analytic(block, VibronicState.basis_state(dimension, index), t)
            .amplitudes.tolist()
            for index in range(dimension)
        ]
        u = [[column[row] for column in columns] for row in range(dimension)]
        assert u[1][0] == -u[0][1].conjugate()
        assert u[1][1] == math.cos(block.angular_frequency * t)
        if dimension == 3:
            assert u[2][1] == -u[1][2].conjugate()
            assert u[2][0] == u[0][2].conjugate()

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (1e-300, 1e-300),
            (1e-200j, -1e-200),
            (1e155, 1e155j),
            (1e-170, 1.0),
            (1.0, 1e-170),
        ],
    )
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_extreme_couplings_match_oracle(self, dimension, alpha, beta):
        block = block_of_dimension(dimension, alpha, beta)
        rng = np.random.default_rng(11)
        amplitudes = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
        state = VibronicState(amplitudes / np.linalg.norm(amplitudes))
        for phase in (0.0, 0.4, 2.5, -7.0):
            t = phase / block.angular_frequency
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                evolved = propagate_analytic(block, state, t)
            reference = propagate_oracle(block, state, t)
            assert np.max(np.abs(evolved.amplitudes - reference.amplitudes)) <= 1e-10
            assert abs(evolved.norm - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "t",
        # 9e307 is finite, and w t overflows only because w > 2.
        [1e308, -1e308, 9e307, math.inf, -math.inf, math.nan, np.float64(math.inf),
         np.array(-1e308)],
    )
    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("propagate", [propagate_analytic, propagate_oracle])
    def test_non_finite_phase_names_the_time(self, propagate, dimension, t):
        block = block_of_dimension(dimension, 2.0 + 0.5j, 3.0)  # w > 2
        state = VibronicState.basis_state(dimension, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as error:
                propagate(block, state, t)
        # The message names the time as the Python float it is read as.
        value = float(t)
        assert str(error.value) == (
            f"time t = {value!r} gives the non-finite phase w t = "
            f"{block.angular_frequency * value!r}"
        )

    @pytest.mark.parametrize("propagate", [propagate_analytic, propagate_oracle])
    def test_largest_finite_phase_propagates(self, propagate):
        block = three_level_block(1.0, 3.0)
        state = VibronicState.basis_state(3, 0)
        t = 1e308 / block.angular_frequency
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolved = propagate(block, state, t)
        assert abs(evolved.norm - 1.0) <= 1e-9

    @given(alpha=coupling_values, beta=coupling_values, t=times)
    def test_unitarity(self, alpha, beta, t):
        block = three_level_block(alpha, beta)
        state = VibronicState(np.array([0.5, 0.5j, math.sqrt(0.5)]))
        assert abs(propagate_analytic(block, state, t).norm - 1.0) <= 1e-12

    @given(alpha=coupling_values, beta=coupling_values, t=times)
    def test_reversibility(self, alpha, beta, t):
        block = three_level_block(alpha, beta)
        state = VibronicState(np.array([0.6, 0.0, 0.8]))
        there = propagate_analytic(block, state, t)
        back = propagate_analytic(block, there, -t)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-10

    @given(alpha=coupling_values, beta=coupling_values, t=times)
    def test_periodicity(self, alpha, beta, t):
        block = three_level_block(alpha, beta)
        period = 2 * math.pi / block.angular_frequency
        state = VibronicState(np.array([0.6, 0.8j, 0.0]))
        one = propagate_analytic(block, state, t)
        two = propagate_analytic(block, state, t + period)
        assert np.max(np.abs(one.amplitudes - two.amplitudes)) <= 1e-10

    @given(alpha=coupling_values, t=times)
    def test_two_level_rabi_limit(self, alpha, t):
        block = build_block(
            ModeVector(1, 0, 0),
            SidebandPattern((1, 0, 0), (1, 0, 0)),
            CouplingConstants(alpha, 1.0),
        )
        assert block.dimension == 2
        state = VibronicState.basis_state(2, 0)
        p1 = level_probabilities(propagate_analytic(block, state, t))[0]
        assert p1 == pytest.approx(math.cos(abs(alpha) * t) ** 2, abs=1e-12)



def _propagator_time_readers():
    """Each propagator on a two- and a three-level block (w > 2), as a
    function of the time giving the evolved state's values."""
    for propagate in (propagate_analytic, propagate_oracle):
        for dimension in (2, 3):
            block = block_of_dimension(dimension, 2.0 + 0.5j, 3.0)
            state = VibronicState.basis_state(dimension, 0)
            yield pytest.param(
                lambda t, propagate=propagate, block=block, state=state:
                    propagate(block, state, t).values,
                id=f"{propagate.__name__}-{dimension}",
            )


_PROPAGATOR_TIME_READERS = list(_propagator_time_readers())


def _stationary_blocks():
    """Each propagator on a one-level block and on a three-level block with
    zero couplings: both have w = 0."""
    for propagate in (propagate_analytic, propagate_oracle):
        for dimension, alpha, beta in ((1, 1.0, 1.0), (3, 0.0, 0.0)):
            block = block_of_dimension(dimension, alpha, beta)
            assert block.angular_frequency == 0.0
            yield pytest.param(propagate, block, id=f"{propagate.__name__}-{dimension}")
# Every reader of a scalar time: the propagators and the scalar path of
# ``survival_probability``.
_TIME_READERS = _PROPAGATOR_TIME_READERS + [
    pytest.param(lambda t: survival_probability(1.0, 2.0, t), id="survival_probability")
]


class TestScalarTime:
    """The propagators and the scalar path of ``survival_probability`` read
    the time as a ``dynamics._scalar``: an array time is a one-line
    ``ValueError``, None fails the phase check, and any other scalar number
    gives the bits of the same Python float. The propagators read it so on
    every block, w = 0 included."""

    @pytest.mark.parametrize("t", [[0.5], np.array([0.5])])
    @pytest.mark.parametrize("reader", _PROPAGATOR_TIME_READERS)
    def test_propagators_reject_an_array_time(self, reader, t):
        with pytest.raises(ValueError) as error:
            reader(t)
        assert str(error.value) == "t must be a scalar, got an array of shape (1,)"

    @pytest.mark.parametrize("reader", _TIME_READERS)
    def test_none_time_is_a_non_finite_phase(self, reader):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as error:
                reader(None)
        assert str(error.value) == "time t = nan gives the non-finite phase w t = nan"

    @pytest.mark.parametrize(
        "t, value",
        [
            (3, 3.0),
            (-2, -2.0),
            (True, 1.0),
            (np.float64(0.7), 0.7),
            (np.array(0.7), 0.7),
            # A Python float takes the propagators' fast path, the numpy
            # scalar and the 0-d array the full read: the bits must agree.
            (np.float64(-0.0), -0.0),
            (np.array(-0.0), -0.0),
            (np.float64(5e-324), 5e-324),
            (np.array(-1e-310), -1e-310),
        ],
    )
    @pytest.mark.parametrize("reader", _TIME_READERS)
    def test_scalar_numbers_keep_the_float_bits(self, reader, t, value):
        assert repr(reader(t)) == repr(reader(value))

    @pytest.mark.parametrize(
        "t, message",
        [
            ([0.5], "t must be a scalar, got an array of shape (1,)"),
            (None, "time t = nan gives the non-finite phase w t = nan"),
            (math.inf, "time t = inf gives the non-finite phase w t = nan"),
        ],
        ids=["list", "None", "inf"],
    )
    @pytest.mark.parametrize("propagate, block", _stationary_blocks())
    def test_stationary_block_reads_the_time(self, propagate, block, t, message):
        # At w = 0 the time is read as on any other block: w t = 0 * inf is
        # nan, a non-finite phase like any other.
        state = VibronicState.basis_state(block.dimension, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as error:
                propagate(block, state, t)
        assert str(error.value) == message

    @pytest.mark.parametrize("propagate, block", _stationary_blocks())
    def test_stationary_block_keeps_the_state(self, propagate, block):
        state = VibronicState.basis_state(block.dimension, 0)
        assert propagate(block, state, 5.0).values == state.values


class TestSpectralPropagatorOverTimes:
    """Given an array of times, the spectral propagator stacks the matrices
    it builds for each time alone, bit for bit."""

    @pytest.mark.parametrize(
        "dimension, alpha, beta",
        [(1, 1.0, 1.0), (2, 0.7 - 0.2j, 1.0), (3, 1.0, 0.0), (3, 0.4 + 1.1j, -2.5j), (3, 0.0, 1.0)],
    )
    def test_stacks_one_time_matrices(self, dimension, alpha, beta):
        block = block_of_dimension(dimension, alpha, beta)
        times = np.array([0.0, -1.7, 0.3, 2.0 * math.pi, 12.25])
        stacked = _spectral_propagator(block, times)
        assert stacked.shape == (times.size, dimension, dimension)
        for t, matrix in zip(times, stacked):
            assert matrix.tobytes() == _spectral_propagator(block, float(t)).tobytes()
        assert _spectral_propagator(block, times.reshape(5, 1)).shape == (5, 1) + (dimension,) * 2

class TestSurvivalProbability:
    def test_two_level_quarter_period(self):
        assert survival_probability(0.0, 1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-30)

    def test_unit_ratio_vanishes_at_half_period(self):
        w = math.sqrt(2)
        assert survival_probability(1.0, w, math.pi / w) == pytest.approx(0.0, abs=1e-30)

    def test_floor_at_half_period(self):
        w = math.sqrt(10)
        assert survival_probability(3.0, w, math.pi / w) == pytest.approx(0.64)

    def test_array_input(self):
        t = np.linspace(0.0, 2 * math.pi, 7)
        values = survival_probability(2.0, 1.0, t)
        assert values.shape == t.shape
        assert values[0] == pytest.approx(1.0)

    def test_array_path_is_the_formula_bit_for_bit(self):
        # The array path works in one buffer; it must round as the formula
        # written out does, with the array square being x * x. The chi = 0
        # reference of the gqze scan relies on this.
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, 200.0, 50_000)
        for chi in (0.0, 0.3, 1.0, 2.5, 1e3):
            w = math.sqrt(1.0 + chi * chi) * 1.7
            chi_sq = chi * chi
            base = (chi_sq + np.cos(w * t)) / (chi_sq + 1.0)
            assert survival_probability(chi, w, t).tobytes() == (base * base).tobytes()
        reference = np.cos(1.7 * t)
        reference *= reference
        assert survival_probability(0.0, 1.7, t).tobytes() == reference.tobytes()

    def test_scalar_is_the_array_path(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, 200.0, 2000)
        for chi in (0.0, 0.3, 1.0, 2.5, 1e3):
            w = math.sqrt(1.0 + chi * chi) * 1.7
            values = survival_probability(chi, w, t)
            scalars = [survival_probability(chi, w, float(time)) for time in t]
            assert all(type(value) is float for value in scalars)
            assert scalars == values.tolist()

    @pytest.mark.parametrize("t", [0.5, np.linspace(0.0, 1.0, 5)])
    def test_rejects_chi_whose_square_overflows(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"chi = 1e\+160 is too large: chi\^2 overflows"):
                survival_probability(1e160, 1.0, t)

    @pytest.mark.parametrize("t", [1e308, -1e308, math.inf, -math.inf, math.nan])
    def test_scalar_non_finite_phase_names_the_time(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as error:
                survival_probability(1.0, 2.0, t)
            with pytest.raises(ValueError):
                survival_probability(1.0, 2.0, np.float64(t))
        assert str(error.value) == f"time t = {t!r} gives the non-finite phase w t = {2.0 * t!r}"

    def test_array_non_finite_phase_is_nan(self):
        # Arrays are not checked, to keep their cost; their callers bound
        # the grid.
        t = np.array([0.0, 1e308, math.inf, math.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            values = survival_probability(1.0, 2.0, t)
        assert values[0] == 1.0
        assert np.all(np.isnan(values[1:]))

    def test_largest_finite_scalar_phase(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = survival_probability(1.0, 2.0, 1e308 / 2.0)
        assert 0.0 <= value <= 1.0

    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            survival_probability(1.0, 0.0, 1.0)

    def test_rejects_negative_chi(self):
        with pytest.raises(ValueError):
            survival_probability(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "chi, shape",
        [([0.5, 2.0], "(2,)"), (np.array([0.5, 2.0]), "(2,)"), (np.array([2.0]), "(1,)")],
    )
    def test_rejects_non_scalar_chi(self, chi, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as error:
                survival_probability(chi, 1.0, np.linspace(0.0, 1.0, 5))
        assert str(error.value) == f"chi must be a scalar, got an array of shape {shape}"

    @pytest.mark.parametrize(
        "chi, message",
        [
            (math.nan, "chi must be finite and >= 0"),
            (-1.0, "chi must be finite and >= 0"),
            (1e160, "chi = 1e+160 is too large: chi^2 overflows float64"),
        ],
    )
    def test_bad_scalar_chi_messages(self, chi, message):
        with pytest.raises(ValueError) as error:
            survival_probability(chi, 1.0, 0.5)
        assert str(error.value) == message

    @pytest.mark.parametrize("chi", [2, np.float32(2.0), np.array(2.0), 2.0])
    def test_scalar_chi_kinds_agree(self, chi):
        t = np.linspace(0.0, 3.0, 7)
        assert survival_probability(chi, 1.5, t).tobytes() == survival_probability(
            2.0, 1.5, t
        ).tobytes()

    @given(beta=coupling_values, t=times)
    def test_matches_overlap_of_propagated_state(self, beta, t):
        block = three_level_block(1.0, beta)
        state = VibronicState.basis_state(3, 0)
        evolved = propagate_analytic(block, state, t)
        direct = abs(np.vdot(state.amplitudes, evolved.amplitudes)) ** 2
        formula = survival_probability(abs(block.chi), block.angular_frequency, t)
        assert direct == pytest.approx(formula, abs=1e-12)


# Real and imaginary parts of amplitudes: signed zeros, subnormals and
# plain values.
_parts = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1.0, -1.0)),
    st.floats(min_value=-1.0, max_value=1.0),
)


def _state_of(parts, index, imaginary):
    """Unit state of the drawn (real, imaginary) parts, with component
    ``index`` replaced by the real or imaginary number that normalizes it."""
    parts = list(parts)
    index %= len(parts)
    rest = sum(re * re + im * im for i, (re, im) in enumerate(parts) if i != index)
    assume(rest <= 0.99)
    top = math.sqrt(1.0 - rest)
    parts[index] = (0.0, top) if imaginary else (top, 0.0)
    return VibronicState([complex(re, im) for re, im in parts])


def _numpy_populations(state):
    """The populations by numpy's complex absolute value, padded to 3."""
    expected = (np.abs(state.amplitudes) ** 2).tolist()
    return expected + [0.0] * (3 - len(expected))


class TestLevelProbabilities:
    # level_probabilities squares the Python abs of each value, which is
    # libm's hypot. numpy's complex absolute is larger * sqrt(1 + ratio^2)
    # instead, so the two agree bit for bit when the real or the imaginary
    # part is zero (every amplitude evolve writes: its blocks have real or
    # imaginary couplings and start from |n, 1>), and to a few ulp otherwise.

    @given(
        parts=st.lists(
            st.one_of(
                st.tuples(_parts, st.sampled_from((0.0, -0.0))),
                st.tuples(st.sampled_from((0.0, -0.0)), _parts),
            ),
            min_size=1,
            max_size=3,
        ),
        index=st.integers(0, 2),
        imaginary=st.booleans(),
    )
    def test_real_or_imaginary_values_match_numpy_bit_for_bit(self, parts, index, imaginary):
        state = _state_of(parts, index, imaginary)
        probs = level_probabilities(state)
        assert all(type(p) is float for p in probs)
        assert np.array(probs).tobytes() == np.array(_numpy_populations(state)).tobytes()

    @given(
        parts=st.lists(st.tuples(_parts, _parts), min_size=1, max_size=3),
        index=st.integers(0, 2),
        imaginary=st.booleans(),
    )
    def test_general_values_match_numpy_to_a_few_ulp(self, parts, index, imaginary):
        state = _state_of(parts, index, imaginary)
        for p, q in zip(level_probabilities(state), _numpy_populations(state)):
            assert abs(p - q) <= 8 * np.finfo(float).eps * q

    @given(
        dimension=st.sampled_from([1, 2, 3]),
        alpha=st.floats(min_value=-10.0, max_value=10.0),
        beta=st.floats(min_value=-10.0, max_value=10.0),
        imaginary=st.tuples(st.booleans(), st.booleans()),
        t=times,
    )
    def test_propagated_basis_states_match_numpy_bit_for_bit(
        self, dimension, alpha, beta, imaginary, t
    ):
        alpha = complex(0.0, alpha) if imaginary[0] else complex(alpha)
        beta = complex(0.0, beta) if imaginary[1] else complex(beta)
        block = block_of_dimension(dimension, alpha, beta)
        for index in range(dimension):
            state = propagate_analytic(block, VibronicState.basis_state(dimension, index), t)
            expected = _numpy_populations(state)
            assert np.array(level_probabilities(state)).tobytes() == np.array(expected).tobytes()

    def test_basis_state(self):
        assert level_probabilities(VibronicState.basis_state(3, 0)) == (1.0, 0.0, 0.0)

    def test_pads_missing_levels(self):
        assert level_probabilities(VibronicState.basis_state(2, 1)) == (0.0, 1.0, 0.0)

    @given(beta=coupling_values, t=times)
    def test_nonnegative_and_normalized(self, beta, t):
        block = three_level_block(1.0, beta)
        state = VibronicState(np.array([0.5, 0.5, math.sqrt(0.5) * 1j]))
        probs = level_probabilities(propagate_analytic(block, state, t))
        assert all(p >= 0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
