import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zenoion.fock import (
    CouplingConstants,
    DegenerateCouplingError,
    InvalidSubspaceError,
    LaserDrive,
    ModeVector,
    SidebandPattern,
    _int_triple,
    chi_ratio,
    coupling_alpha,
    coupling_beta,
    factorial_ratio_root,
)

from .oracles import (
    falling_root_oracle,
    int_triple_reference,
    series_term_oracle,
    sideband_series_term,
)

occupations = st.integers(min_value=0, max_value=8)
triples = st.tuples(occupations, occupations, occupations)
small_counts = st.integers(min_value=0, max_value=3)
small_triples = st.tuples(small_counts, small_counts, small_counts)
finite_complex = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


class TestModeVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            ModeVector(1, -1, 0)

    def test_rejects_fractional_components(self):
        with pytest.raises(ValueError):
            ModeVector.of((1.5, 0, 0))

    def test_remove_gives_componentwise_difference(self):
        assert ModeVector(3, 2, 1).remove((1, 2, 0)) == ModeVector(2, 0, 1)

    def test_remove_never_clamps(self):
        with pytest.raises(InvalidSubspaceError):
            ModeVector(1, 0, 0).remove((2, 0, 0))

    def test_can_remove_matches_remove(self):
        n = ModeVector(2, 0, 1)
        assert n.can_remove((2, 0, 1))
        assert not n.can_remove((0, 1, 0))


# One component of a candidate triple: every kind _int_triple meets or must
# refuse.
triple_components = st.one_of(
    st.integers(-3, 12),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.integers(-3, 12).map(np.int64),
    st.integers(0, 12).map(np.uint8),
    st.integers(-3, 12).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
)
# Three int-like components: near the fast path, which must take only
# exact Python ints >= 0.
int_like = st.one_of(st.integers(-3, 12), st.booleans(), st.integers(-3, 12).map(np.int64))
triple_inputs = st.one_of(
    st.lists(triple_components, max_size=4).map(tuple),
    st.lists(triple_components, max_size=4),
    st.tuples(st.integers(-3, 12), st.integers(-3, 12), st.integers(-3, 12)),
    st.tuples(int_like, int_like, int_like),
    st.text(max_size=4),
    triples.map(lambda t: ModeVector(*t)),
    st.none(),
    st.integers(),
    st.floats(),
)


def _int_triple_outcome(check, value):
    """The triple ``check`` returns, with its types, or the type and message
    of what it raises."""
    try:
        result = check(value, "mode vector")
    except Exception as error:
        return type(error), str(error)
    return type(result), result, [type(component) for component in result]


class TestIntTriple:
    @given(value=triple_inputs)
    def test_matches_the_full_check(self, value):
        assert _int_triple_outcome(_int_triple, value) == _int_triple_outcome(
            int_triple_reference, value
        )

    def test_checked_triple_is_returned_unchanged(self):
        triple = (3, 0, 2)
        assert _int_triple(triple, "mode vector") is triple


class TestSidebandPattern:
    def test_rejects_negative_quanta(self):
        with pytest.raises(ValueError):
            SidebandPattern((1, 0, 0), (0, -1, 0))

    def test_normalizes_to_int_tuples(self):
        pattern = SidebandPattern([1, 1, 0], (0, 0, 0))
        assert pattern.r == (1, 1, 0)
        assert pattern.l == (0, 0, 0)


class TestFactorialRatioRoot:
    def test_single_quantum(self):
        assert factorial_ratio_root((2, 0, 0), (1, 0, 0)) == pytest.approx(math.sqrt(2))

    def test_empty_removal_is_unity(self):
        assert factorial_ratio_root((5, 3, 2), (0, 0, 0)) == 1.0

    def test_two_quanta(self):
        assert factorial_ratio_root((3, 0, 0), (2, 0, 0)) == pytest.approx(math.sqrt(6))

    def test_invalid_subspace(self):
        with pytest.raises(InvalidSubspaceError):
            factorial_ratio_root((1, 0, 0), (2, 0, 0))

    @given(n=triples)
    def test_zero_removal_always_unity(self, n):
        assert factorial_ratio_root(n, (0, 0, 0)) == 1.0

    @given(n=triples, d=small_triples)
    def test_matches_ladder_oracle(self, n, d):
        if not all(nv >= dv for nv, dv in zip(n, d)):
            with pytest.raises(InvalidSubspaceError):
                factorial_ratio_root(n, d)
            return
        expected = falling_root_oracle(n, d)
        value = factorial_ratio_root(n, d)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_overflowing_product_returns_inf_at_once(self):
        # Running to the end would take 10^9 multiplications.
        start = time.perf_counter()
        assert factorial_ratio_root((10**9, 0, 0), (10**9, 0, 0)) == math.inf
        assert time.perf_counter() - start < 1.0

    def test_factor_beyond_float_range_returns_inf(self):
        assert factorial_ratio_root((10**400, 0, 0), (1, 0, 0)) == math.inf
        assert factorial_ratio_root((0, 0, 10**400), (0, 0, 0)) == 1.0

    @pytest.mark.parametrize(
        "n, d",
        [((170, 0, 0), (170, 0, 0)), ((171, 0, 0), (171, 0, 0)), ((90, 90, 3), (85, 80, 2)),
         ((2**1023, 0, 0), (1, 0, 0)), ((2**1023, 3, 0), (2, 1, 0))],
    )
    def test_keeps_the_bits_of_the_plain_running_product(self, n, d):
        product = 1.0
        for occupation, count in zip(n, d):
            for k in range(count):
                product *= occupation - k
        assert factorial_ratio_root(n, d) == math.sqrt(product)


class TestBlockCouplings:
    def test_alpha_single_mixed_sideband(self):
        assert coupling_alpha(1.0, ModeVector(2, 1, 0), (1, 1, 0)) == pytest.approx(
            math.sqrt(2)
        )

    def test_alpha_carrier_returns_gamma(self):
        gamma = 0.3 - 0.4j
        assert coupling_alpha(gamma, ModeVector(4, 2, 1), (0, 0, 0)) == gamma

    def test_alpha_invalid_subspace(self):
        with pytest.raises(InvalidSubspaceError):
            coupling_alpha(1.0, ModeVector(1, 0, 0), (2, 0, 0))

    # coupling_beta takes the level-2 occupation n - r: each middle below is
    # that of the n and r = (1, 0, 0) the case was first written for.
    def test_beta_full_chain(self):
        assert coupling_beta(1.0, ModeVector(1, 1, 0), (1, 1, 0)) == pytest.approx(1.0)

    def test_beta_carrier_returns_gamma(self):
        gamma = 1.5j
        assert coupling_beta(gamma, ModeVector(2, 1, 0), (0, 0, 0)) == gamma

    def test_beta_two_quanta(self):
        assert coupling_beta(1.0, ModeVector(2, 0, 0), (2, 0, 0)) == pytest.approx(math.sqrt(2))

    def test_beta_missing_target_state(self):
        with pytest.raises(InvalidSubspaceError):
            coupling_beta(1.0, ModeVector(0, 0, 0), (1, 0, 0))

    @given(gamma=finite_complex, scale=st.floats(0.1, 10.0))
    def test_alpha_homogeneous_in_gamma(self, gamma, scale):
        n, r = ModeVector(3, 1, 0), (1, 1, 0)
        assert coupling_alpha(scale * gamma, n, r) == pytest.approx(
            scale * coupling_alpha(gamma, n, r)
        )

    @given(gamma=finite_complex, scale=st.floats(0.1, 10.0))
    def test_beta_homogeneous_in_gamma(self, gamma, scale):
        middle, l = ModeVector(2, 1, 1), (1, 1, 0)
        assert coupling_beta(scale * gamma, middle, l) == pytest.approx(
            scale * coupling_beta(gamma, middle, l)
        )


class TestChiRatio:
    def test_equal_couplings(self):
        gamma = 0.7 - 0.1j
        assert chi_ratio(gamma, gamma) == pytest.approx(1.0)

    def test_definition(self):
        assert chi_ratio(1.0, 3.0) == pytest.approx(3.0)
        assert abs(chi_ratio(1.0, 3.0)) ** 2 == pytest.approx(9.0)

    def test_degenerate_coupling(self):
        with pytest.raises(DegenerateCouplingError):
            chi_ratio(0.0, 1.0)

    @given(alpha=finite_complex, beta=finite_complex, scale=finite_complex)
    def test_scale_invariance(self, alpha, beta, scale):
        assert chi_ratio(scale * alpha, scale * beta) == pytest.approx(
            chi_ratio(alpha, beta), rel=1e-9
        )


def _reference_gamma(omega, eta):
    return -omega * eta * math.exp(-eta * eta / 2)


def _drive_gamma(omega, eta):
    """gamma1 of a beam at the default pi/2 phase, where it is real."""
    drive = LaserDrive(omega, eta)
    return CouplingConstants.from_drives(drive, drive).gamma1.real


class TestEffectiveGamma:
    def test_carrier_limit(self):
        assert _drive_gamma(2.0, 0.0) == 0.0

    def test_direct_value(self):
        assert _drive_gamma(1.0, 0.1) == pytest.approx(_reference_gamma(1.0, 0.1))

    def test_linearity_in_rabi_frequency(self):
        assert _drive_gamma(2.0, 0.1) == pytest.approx(2 * _drive_gamma(1.0, 0.1))

    @given(omega=st.floats(0.1, 10.0), eta=st.floats(1e-6, 3.0))
    def test_suppression_factor_in_unit_interval(self, omega, eta):
        ratio = _drive_gamma(omega, eta) / (-omega * eta)
        assert 0.0 < ratio <= 1.0

    def test_suppression_vanishes_with_eta(self):
        ratio = _drive_gamma(1.0, 1e-8) / (-1e-8)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_matches_drive_constructor_at_default_phase(self):
        couplings = CouplingConstants.from_drives(
            LaserDrive(1.3, 0.08), LaserDrive(0.7, 0.05)
        )
        assert couplings.gamma1 == _reference_gamma(1.3, 0.08)
        assert couplings.gamma2 == _reference_gamma(0.7, 0.05)
        assert couplings.gamma1.imag == 0.0
        assert couplings.gamma2.imag == 0.0


class TestSidebandSeries:
    def test_leading_term_is_retained_coupling(self):
        for n in range(6):
            assert sideband_series_term(0.2, 0, n) == pytest.approx(
                0.2 * math.sqrt(n + 1)
            )

    def test_vanishes_without_excursion(self):
        for j in range(4):
            assert sideband_series_term(0.0, j, 2) == 0.0

    def test_correction_ratio_example(self):
        ratio = sideband_series_term(0.1, 1, 1) / sideband_series_term(0.1, 0, 1)
        assert ratio == pytest.approx(0.015)
        assert ratio <= 0.05

    @pytest.mark.parametrize("eta", [0.02, 0.05, 0.1])
    @pytest.mark.parametrize("n", range(6))
    def test_truncation_bound_in_operating_regime(self, eta, n):
        ratio = sideband_series_term(eta, 1, n) / sideband_series_term(eta, 0, n)
        assert ratio <= 0.05

    @pytest.mark.parametrize("j", range(4))
    @pytest.mark.parametrize("n", range(6))
    def test_matches_ladder_oracle(self, j, n):
        value = sideband_series_term(0.1, j, n)
        assert value == pytest.approx(series_term_oracle(0.1, j, n), rel=1e-12)


class TestCouplingConstants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CouplingConstants(float("nan"), 1.0)

    def test_coerces_to_complex(self):
        couplings = CouplingConstants(1, 2)
        assert couplings.gamma1 == 1 + 0j
        assert isinstance(couplings.gamma2, complex)
