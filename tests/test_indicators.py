import math
import struct
import sys
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import zenoion.runner
from zenoion import dynamics, indicators
from zenoion.dynamics import (
    VibronicState,
    build_block,
    level_probabilities,
    propagate_analytic,
    propagate_oracle,
    survival_probability,
)
from zenoion.fock import CouplingConstants, ModeVector, SidebandPattern
from zenoion.indicators import (
    angular_frequency,
    gqze_interval,
    gqze_interval_grid,
    indicator_report,
    mean_level_probabilities,
    mean_survival,
    mean_survival_quadrature,
    min_survival,
    min_survival_grid,
    poincare_time,
    sub_threshold_measure,
    sub_threshold_measure_grid,
    time_of_min,
    time_of_min_grid,
)
from zenoion.runner import _oracle_level_means

from . import oracles
from .oracles import bisect_gap_oracle

chi_values = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


class TestPoincareTime:
    def test_two_level_period(self):
        assert poincare_time(0.0) == pytest.approx(2 * math.pi)

    def test_unit_ratio(self):
        assert poincare_time(1.0) == pytest.approx(2 * math.pi / math.sqrt(2))

    @pytest.mark.parametrize(
        "function, args",
        [
            (indicator_report, (1e200, 0.01)),
            (gqze_interval, (1e200,)),
            (gqze_interval_grid, (1e200,)),
            (poincare_time, (1e200,)),
            (poincare_time, (np.float64(1e200),)),
            (time_of_min, (1e200,)),
            (time_of_min, (np.array(1e200),)),
            (sub_threshold_measure, (1e200, 0.01)),
            (sub_threshold_measure, (1e200, 2.0)),
        ],
    )
    def test_frequency_that_overflows(self, function, args):
        # sqrt(1 + chi^2) cannot be formed once chi^2 overflows; the searches
        # reject such a chi by their range check first. A numpy float and a
        # 0-d array are scalar chi, rejected alike.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^chi = 1e\+200 is too large: ") as info:
                function(*args)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "function, args",
        [(indicator_report, (1e200, 0.01)), (gqze_interval, (1e200,)),
         (gqze_interval_grid, (1e200,))],
    )
    def test_searches_reject_a_finite_chi_by_their_range_check(self, function, args):
        with pytest.raises(ValueError, match=r"^chi = 1e\+200 is too large: the survival floor"):
            function(*args)

    def test_largest_finite_frequency_keeps_its_bits(self):
        chi = math.sqrt(sys.float_info.max)
        while math.isfinite(math.nextafter(chi, math.inf) * math.nextafter(chi, math.inf)):
            chi = math.nextafter(chi, math.inf)
        w = math.sqrt(1.0 + chi * chi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert angular_frequency(chi) == w
            assert poincare_time(chi) == math.tau / w
            assert time_of_min(chi) == math.pi / w


# Every closed form that depends on chi alone, as a function of chi.
_CLOSED_FORMS = {
    "angular_frequency": angular_frequency,
    "poincare_time": poincare_time,
    "min_survival": min_survival,
    "time_of_min": time_of_min,
    "mean_survival": mean_survival,
    "mean_level_probabilities": mean_level_probabilities,
    "sub_threshold_measure": lambda chi: sub_threshold_measure(chi, 0.01),
}

# Every public function of chi, as a function of chi alone.
_CHI_FUNCTIONS = {
    **_CLOSED_FORMS,
    "survival_probability": lambda chi: survival_probability(chi, 1.0, 0.5),
    "gqze_interval": gqze_interval,
    "gqze_interval_grid": gqze_interval_grid,
    "indicator_report": lambda chi: indicator_report(chi, 0.01),
}


class TestChiSquareOverflow:
    # The array is 0-d: a scalar chi, whose square overflows alike.
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("name", list(_CLOSED_FORMS))
    def test_is_one_line_value_error(self, name, shape):
        chi = 1e200 if shape == "scalar" else np.array(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                _CLOSED_FORMS[name](chi)
        assert str(info.value) == "chi = 1e+200 is too large: chi^2 overflows float64"


def _closed_form_values(chi):
    """(name, value) of each closed form at chi, the three mean levels apart."""
    pairs = [
        (name, _CLOSED_FORMS[name](chi))
        for name in ("angular_frequency", "poincare_time", "min_survival", "time_of_min",
                     "mean_survival")
    ]
    pairs += [(f"P{level}", value) for level, value in
              enumerate(mean_level_probabilities(chi), start=1)]
    return pairs


class TestScalarMatchesArray:
    """``figures`` passes each chi as the numpy float it takes from its grid
    array and ``sweep`` as a Python float. Both run the same Python float
    arithmetic, so a ``sweep`` row equals the figure value at the same chi."""

    @settings(max_examples=300)
    @given(
        chi=st.one_of(
            st.floats(min_value=0.0, max_value=1e6),
            st.floats(min_value=-6.0, max_value=6.0).map(lambda exponent: 10.0**exponent),
        )
    )
    def test_same_bits(self, chi):
        element = np.array([0.3, chi, 2.0])[1]
        for (name, scalar), (_, value) in zip(
            _closed_form_values(chi), _closed_form_values(element)
        ):
            assert type(value) is float and _bits(scalar) == _bits(value), name

    # chi^4 overflows from about 1.2e77, where the averages change form.
    @settings(max_examples=100)
    @given(chi=st.floats(min_value=1.2e77, max_value=1e154))
    def test_same_bits_past_chi_fourth_overflow(self, chi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = zip(_closed_form_values(chi), _closed_form_values(np.array([chi])[0]))
            for (name, scalar), (_, value) in pairs:
                assert _bits(scalar) == _bits(value), name

    # Where a 0-d float64 square, which calls libm pow, missed x * x by an
    # ulp; each expected value is written out with x * x from chi^2.
    @pytest.mark.parametrize(
        "chi, function, written_out",
        [
            pytest.param(0.52, mean_survival,
                         lambda sq: (sq * sq + 0.5) / ((1.0 + sq) * (1.0 + sq)),
                         id="0.52-mean_survival"),
            pytest.param(0.52, lambda chi: mean_level_probabilities(chi)[2],
                         lambda sq: 1.5 * sq / ((1.0 + sq) * (1.0 + sq)), id="0.52-<lambda>"),
            pytest.param(1.83, min_survival,
                         lambda sq: ((sq - 1.0) / (sq + 1.0)) * ((sq - 1.0) / (sq + 1.0)),
                         id="1.83-min_survival"),
        ],
    )
    def test_former_pow_rows(self, chi, function, written_out):
        assert _bits(function(chi)) == _bits(written_out(chi * chi))


class TestScalarInputs:
    @pytest.mark.parametrize(
        "chi", [2, True, 0.5, np.float64(1.5), np.float32(0.25), np.array(3.0)],
        ids=["int", "bool", "float", "float64", "float32", "0-d"],
    )
    @pytest.mark.parametrize("name", list(_CLOSED_FORMS))
    def test_scalar_gives_python_float(self, name, chi):
        value = _CLOSED_FORMS[name](chi)
        values = value if name == "mean_level_probabilities" else (value,)
        assert [type(v) for v in values] == [float] * len(values)

    @pytest.mark.parametrize(
        "chi, shape",
        [
            ([0.5, 2.0], "(2,)"),
            (np.array([0.5, 2.0]), "(2,)"),
            (np.array([2.0]), "(1,)"),
            (np.array([[1.0]]), "(1, 1)"),
        ],
        ids=["list", "array", "one-element-array", "2-d-array"],
    )
    @pytest.mark.parametrize("name", list(_CHI_FUNCTIONS))
    def test_rejects_array_chi(self, name, chi, shape):
        # One line, raised before any range check, and neither numpy's
        # DeprecationWarning nor Python's TypeError from float(chi).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                _CHI_FUNCTIONS[name](chi)
        assert str(info.value) == f"chi must be a scalar, got an array of shape {shape}"

    # TestChiSquareOverflow covers 1e200. 'x' keeps float()'s own message.
    # The gqze searches check chi before their range check, so None and inf
    # read as they do in the closed forms.
    @pytest.mark.parametrize(
        "chi, message",
        [
            pytest.param(math.nan, "chi must be finite and >= 0", id="nan"),
            pytest.param(-0.5, "chi must be finite and >= 0", id="-0.5"),
            pytest.param(math.inf, "chi must be finite and >= 0", id="inf"),
            pytest.param(None, "chi must be finite and >= 0", id="None"),
            pytest.param("x", "could not convert string to float: 'x'", id="x"),
        ],
    )
    @pytest.mark.parametrize("name", list(_CHI_FUNCTIONS))
    def test_rejected_values(self, name, chi, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                _CHI_FUNCTIONS[name](chi)
        assert str(info.value) == message


class _NoNumpy:
    """Stands in for the numpy module: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy reached: np.{name}")


class TestWithoutNumpy:
    @pytest.mark.parametrize("chi", [0.7, 2], ids=["float", "int"])
    def test_python_chi_reaches_no_numpy(self, monkeypatch, chi):
        monkeypatch.setattr(dynamics, "np", _NoNumpy())
        monkeypatch.setattr(indicators, "np", _NoNumpy())
        values = {name: function(chi) for name, function in _CLOSED_FORMS.items()}
        w = values["angular_frequency"]
        for t in (0.5, 1):
            assert type(survival_probability(chi, w, t)) is float
        monkeypatch.undo()
        assert values == {name: function(float(chi)) for name, function in _CLOSED_FORMS.items()}


class TestMinSurvival:
    def test_below_unit_ratio_touches_zero(self):
        assert min_survival(0.5) == 0.0

    def test_value_at_three(self):
        assert min_survival(3.0) == pytest.approx(0.64)

    def test_value_at_ten(self):
        assert min_survival(10.0) == pytest.approx((99 / 101) ** 2, abs=1e-15)

    def test_exact_zero_at_unit_ratio(self):
        assert min_survival(1.0) == 0.0

    @pytest.mark.parametrize("chi", np.logspace(-2, 2, 17))
    def test_matches_grid_minimum(self, chi):
        assert min_survival(chi) == pytest.approx(min_survival_grid(chi), abs=1e-6)

    def test_nondecreasing_above_one(self):
        values = [min_survival(chi) for chi in np.linspace(1.0, 40.0, 400).tolist()]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("chi", [2.0, 5.0, 20.0, 100.0])
    def test_floor_approaches_one(self, chi):
        assert min_survival(chi) >= 1 - 4 / chi**2


class TestTimeOfMin:
    def test_two_level_quarter_period(self):
        assert time_of_min(0.0) == pytest.approx(math.pi / 2)

    def test_maximum_at_unit_ratio(self):
        assert time_of_min(1.0) == pytest.approx(math.pi / math.sqrt(2))

    def test_above_unit_ratio(self):
        assert time_of_min(2.0) == pytest.approx(math.pi / math.sqrt(5))

    def test_continuous_at_unit_ratio(self):
        # Continuous but with a square-root cusp from the left: the gap
        # closes like sqrt(h), not h.
        at_one = time_of_min(1.0)
        assert at_one == pytest.approx(math.pi / math.sqrt(2), abs=1e-15)
        for h in (1e-4, 1e-6, 1e-8):
            assert abs(time_of_min(1.0 - h) - at_one) <= 3 * math.sqrt(h)
            assert abs(time_of_min(1.0 + h) - at_one) <= 3 * math.sqrt(h)

    def test_argmax_is_unit_ratio(self):
        grid = np.round(np.arange(301) * 0.01, 12).tolist()
        assert max(grid, key=time_of_min) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize(
        "chi", [0.0, 0.3, 0.5, 1 / math.sqrt(2), 0.9, 0.99, 1.0, 1.01, 1.5, 2.0, 3.0, 10.0]
    )
    def test_matches_first_grid_argmin(self, chi):
        assert abs(time_of_min(chi) - time_of_min_grid(chi)) <= 1e-7

    def test_arccos_is_libm_for_scalars_and_arrays(self):
        # numpy's arccos kernel depends on the CPU; libm's does not. 0.70,
        # 0.75 and 0.85 are sweep grid points where an AVX-512 kernel
        # differs from libm in the last bit.
        rng = np.random.default_rng(13)
        chis = np.concatenate([[0.0, 0.64, 0.7, 0.74, 0.75, 0.85, 1.0], rng.uniform(0, 1, 1993)])
        expected = [math.acos(-c * c) / math.sqrt(1.0 + c * c) for c in chis.tolist()]
        assert [time_of_min(c) for c in chis.tolist()] == expected
        # The numpy floats that ``figures`` takes from its grid array.
        assert [time_of_min(c) for c in chis] == expected
        above = [1.5, 2.0, 1e3]
        assert [time_of_min(c) for c in np.array(above)] == [
            math.pi / math.sqrt(1.0 + c * c) for c in above
        ]


class TestMeanSurvival:
    def test_two_level_average(self):
        assert mean_survival(0.0) == pytest.approx(0.5)

    def test_global_minimum_is_one_third(self):
        assert mean_survival(1 / math.sqrt(2)) == pytest.approx(1 / 3, abs=1e-15)

    def test_unit_ratio(self):
        assert mean_survival(1.0) == pytest.approx(3 / 8)
        assert mean_survival_quadrature(1.0) == pytest.approx(3 / 8, abs=1e-14)

    @pytest.mark.parametrize("chi", [0.0, 0.2, 1 / math.sqrt(2), 1.0, 3.0, 10.0, 80.0])
    def test_matches_quadrature(self, chi):
        assert mean_survival(chi) == pytest.approx(
            mean_survival_quadrature(chi), abs=1e-14
        )

    @pytest.mark.parametrize("chi", [2.0, 5.0, 20.0, 100.0])
    def test_mean_approaches_one(self, chi):
        assert mean_survival(chi) >= 1 - 2 / chi**2

    def test_argmin_on_dense_grid(self):
        grid = np.round(np.arange(20_001) * 1e-4, 12).tolist()
        assert min(grid, key=mean_survival) == pytest.approx(1 / math.sqrt(2), abs=1e-3)

    @given(chi=chi_values)
    def test_mean_bounds_floor(self, chi):
        floor = min_survival(chi)
        mean = mean_survival(chi)
        assert floor <= mean <= 1.0
        if chi > 0:
            assert mean > floor


class TestMeanLevelProbabilities:
    def test_equipartition_point(self):
        triple = mean_level_probabilities(1 / math.sqrt(2))
        assert triple[0] == pytest.approx(1 / 3, abs=1e-12)
        assert triple[1] == pytest.approx(1 / 3, abs=1e-12)
        assert triple[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_two_level_split(self):
        assert mean_level_probabilities(0.0) == pytest.approx((0.5, 0.5, 0.0))

    @given(chi=chi_values)
    def test_normalization(self, chi):
        assert sum(mean_level_probabilities(chi)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("chi", [0.0, 0.4, 1 / math.sqrt(2), 1.0, 2.5, 7.0])
    def test_matches_propagation_quadrature(self, chi):
        # Period-average the actual propagated populations; pins the closed
        # forms for the middle and bottom levels against an independent route.
        block = build_block(
            ModeVector(0, 0, 0),
            SidebandPattern((0, 0, 0), (0, 0, 0)),
            CouplingConstants(1.0, chi),
        )
        state = VibronicState.basis_state(3, 0)
        period = poincare_time(chi)
        panels = 16  # exact: the populations hold harmonics 0, 1, 2 of wt
        times = np.linspace(0.0, period, panels + 1)
        sums = np.zeros(3)
        for index, t in enumerate(times):
            weight = 0.5 if index in (0, panels) else 1.0
            sums += weight * np.asarray(
                level_probabilities(propagate_analytic(block, state, float(t)))
            )
        averages = sums / panels
        expected = mean_level_probabilities(chi)
        assert averages == pytest.approx(expected, abs=1e-14)


def _on_panels(panels):
    """Both quadrature twins, ``mean_survival_quadrature`` and
    ``_oracle_level_means``, on ``panels`` trapezoid panels instead of the
    fixed 16, within the ``with`` block."""
    return mock.patch.object(indicators, "_QUADRATURE_PANELS", panels)


class TestPeriodAverageTrapezoidExactness:
    """Every level population holds harmonics 0, 1 and 2 of wt only, so an
    N-panel trapezoid over one period is exact for any N >= 3; the twins of
    ``validate`` rely on it at 16 panels."""

    @settings(max_examples=200, deadline=None)
    @given(
        chi=st.one_of(
            st.just(0.0),
            st.floats(min_value=-4.0, max_value=3.0).map(lambda exponent: 10.0**exponent),
        ),
        panels=st.integers(min_value=3, max_value=64),
    )
    def test_any_panel_count_from_three_is_exact(self, chi, panels):
        expected = mean_level_probabilities(chi)
        with _on_panels(panels):
            assert abs(mean_survival_quadrature(chi) - expected[0]) <= 1e-14
            _, level2, level3 = _oracle_level_means(chi)
        assert abs(level2 - expected[1]) <= 1e-14
        assert abs(level3 - expected[2]) <= 1e-14

    def test_two_panels_miss(self):
        # Two panels alias harmonic 2 onto the mean, so the checks can fail.
        expected = mean_level_probabilities(0.7)
        with _on_panels(2):
            assert abs(mean_survival_quadrature(0.7) - expected[0]) > 1e-2
            _, level2, level3 = _oracle_level_means(0.7)
        assert abs(level2 - expected[1]) > 1e-2
        assert abs(level3 - expected[2]) > 1e-2


class TestOracleLevelMeans:
    """``_oracle_level_means`` propagates all panel edges at once; it must
    give the bits of propagating one time after another."""

    @staticmethod
    def _per_time(chi, panels):
        block = build_block(
            ModeVector(0, 0, 0),
            SidebandPattern((0, 0, 0), (0, 0, 0)),
            CouplingConstants(1.0, chi),
        )
        state = VibronicState.basis_state(3, 0)
        times = np.linspace(0.0, 2.0 * math.pi / block.angular_frequency, panels + 1)
        populations = np.array(
            [level_probabilities(propagate_oracle(block, state, float(t))) for t in times]
        )
        weights = np.full(panels + 1, 1.0)
        weights[0] = weights[-1] = 0.5
        return weights @ populations / panels

    @settings(max_examples=100, deadline=None)
    @given(
        chi=st.one_of(
            st.just(0.0), st.floats(min_value=-4.0, max_value=3.0).map(lambda e: 10.0**e)
        ),
        panels=st.sampled_from([2, 3, 16, 33]),
    )
    def test_matches_one_time_at_a_time(self, chi, panels):
        with _on_panels(panels):
            batched = _oracle_level_means(chi)
        assert batched.tobytes() == self._per_time(chi, panels).tobytes()

    def test_unnormalised_state_is_rejected(self, monkeypatch):
        original = zenoion.runner._spectral_propagator
        monkeypatch.setattr(
            zenoion.runner, "_spectral_propagator", lambda block, t: 1.01 * original(block, t)
        )
        with pytest.raises(ValueError, match="^state must be normalized, got norm 1.01"):
            _oracle_level_means(0.7)


class TestAveragesPastChiFourthOverflow:
    # chi^4 overflows float64 from chi ~ 1.2e77, well inside the chi^2 range.
    # The array is 0-d: a scalar chi.
    @pytest.mark.parametrize("chi", [1e100, 1e150])
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_finite_and_normalised(self, chi, shape):
        value = chi if shape == "scalar" else np.array(chi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            triple = mean_level_probabilities(value)
            mean = mean_survival(value)
            assert sub_threshold_measure(value, 0.01) == 0.0
        assert all(math.isfinite(level) for level in triple)
        assert abs(sum(triple) - 1.0) <= 1e-15
        assert abs(mean - 1.0) <= 1e-15

    def test_in_range_entries_keep_their_bits(self):
        # Below the overflow the averages keep the form of their docstring,
        # written out here with x * x; past it P1 rounds to 1.
        for chi in (0.0, 0.3, 2.0, 1e10, 1e77):
            sq = chi * chi
            scale = (1.0 + sq) * (1.0 + sq)
            assert mean_level_probabilities(chi) == (
                (sq * sq + 0.5) / scale, 0.5 / (1.0 + sq), 1.5 * sq / scale
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mean_level_probabilities(1e150)[0] == 1.0


class TestSubThresholdMeasure:
    def test_zero_when_threshold_below_floor(self):
        # mean(10) - 0.05 sits below the survival floor at chi = 10
        assert mean_survival(10.0) - 0.05 < min_survival(10.0)
        assert sub_threshold_measure(10.0, 0.05) == 0.0

    def test_two_level_half_period_limit(self):
        ratio = sub_threshold_measure(0.0, 1e-12) / poincare_time(0.0)
        assert ratio == pytest.approx(0.5, abs=1e-6)

    def test_zero_when_epsilon_swallows_mean(self):
        assert sub_threshold_measure(3.0, mean_survival(3.0) + 0.1) == 0.0

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            sub_threshold_measure(1.0, 0.0)

    # None fails the check itself, not float(None) with a TypeError.
    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0, math.inf, None])
    @pytest.mark.parametrize(
        "function", [sub_threshold_measure, sub_threshold_measure_grid, indicator_report]
    )
    def test_rejects_bad_epsilon_in_one_line(self, function, epsilon):
        with pytest.raises(ValueError, match=r"^epsilon must be finite and > 0$"):
            function(2.0, epsilon)

    @pytest.mark.parametrize("chi", [0.3, 0.7, 1.0, 2.0])
    def test_matches_grid_measure(self, chi):
        period = poincare_time(chi)
        closed = sub_threshold_measure(chi, 0.01)
        twin = sub_threshold_measure_grid(chi, 0.01)
        assert abs(closed - twin) <= 1e-8 * period

    def test_ratio_eventually_vanishes(self):
        ratios = [
            sub_threshold_measure(chi, 0.01) / poincare_time(chi)
            for chi in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == 0.0

    @given(chi=chi_values)
    def test_bounded_by_period(self, chi):
        value = sub_threshold_measure(chi, 0.01)
        assert 0.0 <= value <= poincare_time(chi) * (1 + 1e-12)


class TestGqzeInterval:
    def test_no_interval_at_zero_ratio(self):
        assert gqze_interval(0.0) is None
        assert gqze_interval_grid(0.0) is None

    @pytest.mark.parametrize("chi", [2.0, 5.0, 10.0])
    def test_present_above_unit_ratio(self, chi):
        interval = gqze_interval(chi)
        assert interval is not None
        assert interval.present
        assert interval.period_ratio >= 0.5

    def test_hindered_curve_stays_above_reference(self):
        interval = gqze_interval(5.0)
        w = math.sqrt(26.0)
        times = np.linspace(0.0, interval.end, 20_001)[1:-1]
        hindered = ((25.0 + np.cos(w * times)) / 26.0) ** 2
        reference = np.cos(times) ** 2
        assert np.all(hindered > reference)

    def test_small_time_expansion_is_positive(self):
        # Both curves share the quadratic decay; the difference opens at
        # fourth order as chi^2 t^4 / 12. Sample above float noise.
        times = np.linspace(0.01, 0.1, 200)
        for chi in (0.5, 1.0, 2.0, 10.0):
            w = math.sqrt(1.0 + chi * chi)
            hindered = ((chi * chi + np.cos(w * times)) / (chi * chi + 1.0)) ** 2
            reference = np.cos(times) ** 2
            gap = hindered - reference
            assert np.all(gap > 0.0)
            quartic = gap[0] / times[0] ** 4
            assert quartic == pytest.approx(chi * chi / 12.0, rel=0.01)

    def test_order_threshold_is_applied(self):
        generous = gqze_interval(2.0, order_threshold=0.5)
        strict = gqze_interval(2.0, order_threshold=1.0)
        assert generous.present
        assert strict.end == pytest.approx(generous.end)
        assert strict.present == (strict.period_ratio >= 1.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            gqze_interval(2.0, order_threshold=0.0)

    # None fails the check itself, not the comparison with a TypeError.
    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0, math.inf, None, 1.5])
    @pytest.mark.parametrize(
        "function",
        [
            gqze_interval,
            gqze_interval_grid,
            lambda chi, threshold: indicator_report(chi, 0.01, threshold),
        ],
        ids=["gqze_interval", "gqze_interval_grid", "indicator_report"],
    )
    def test_rejects_bad_threshold_in_one_line(self, function, threshold):
        with pytest.raises(ValueError, match=r"^order_threshold must lie in \(0, 1\]$"):
            function(2.0, threshold)

    @pytest.mark.parametrize("chi", [2, np.float64(2.0), np.array(2.0)], ids=type)
    def test_accepts_every_scalar_kind(self, chi):
        assert gqze_interval(chi) == gqze_interval(2.0)
        assert indicator_report(chi, 0.01) == indicator_report(2.0, 0.01)


# Each scalar argument: a call that passes ``value`` in its place, and the
# one-line message of its range check.
_SCALAR_ARGUMENTS = {
    "chi": (lambda value: sub_threshold_measure(value, 0.01), "chi must be finite and >= 0"),
    "epsilon": (lambda value: sub_threshold_measure(2.0, value), "epsilon must be finite and > 0"),
    "order_threshold": (
        lambda value: gqze_interval(2.0, value), "order_threshold must lie in (0, 1]"
    ),
    "angular_frequency": (
        lambda value: survival_probability(1.0, value, 0.3),
        "angular_frequency must be finite and > 0",
    ),
}


class TestScalarArguments:
    """chi, epsilon, order_threshold and angular_frequency read a value the
    same way: an array or a list is not a scalar, None fails the range check,
    and anything else goes through ``float()``."""

    @staticmethod
    def _error(name, value):
        call, _ = _SCALAR_ARGUMENTS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call(value)
        return str(info.value)

    @pytest.mark.parametrize("name", list(_SCALAR_ARGUMENTS))
    def test_none_fails_the_range_check(self, name):
        assert self._error(name, None) == _SCALAR_ARGUMENTS[name][1]

    @pytest.mark.parametrize("value", [[0.5], np.array([0.5])], ids=["list", "array"])
    @pytest.mark.parametrize("name", list(_SCALAR_ARGUMENTS))
    def test_one_element_vector_is_not_a_scalar(self, name, value):
        assert self._error(name, value) == f"{name} must be a scalar, got an array of shape (1,)"

    @pytest.mark.parametrize("name", list(_SCALAR_ARGUMENTS))
    def test_non_numeric_string_keeps_the_float_message(self, name):
        assert self._error(name, "x") == "could not convert string to float: 'x'"

    @pytest.mark.parametrize("name", list(_SCALAR_ARGUMENTS))
    def test_numeric_string_reads_as_its_float(self, name):
        call, _ = _SCALAR_ARGUMENTS[name]
        assert call("0.5") == call(0.5)


# Grids the windowed gqze search is pinned to the dense scan on: the 0.05
# sweep grid to 22, a log grid over four decades, and commensurate ratios
# (w = 2, 3, 4, 5), where the curves touch at multiples of pi.
_GQZE_TWIN_CHIS = sorted(
    {float(c) for c in np.round(np.arange(1, 441) * 0.05, 12)}
    | {float(c) for c in np.logspace(-2, 2, 60)}
    | {math.sqrt(k * k - 1.0) for k in (2, 3, 4, 5)}
)


class TestGqzeWindowedSearch:
    @pytest.mark.parametrize("chi", _GQZE_TWIN_CHIS)
    def test_matches_dense_grid_bit_for_bit(self, chi):
        assert gqze_interval(chi) == gqze_interval_grid(chi)

    @settings(max_examples=30)
    @given(chi=st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    def test_matches_dense_grid_property(self, chi):
        assert gqze_interval(chi) == gqze_interval_grid(chi)

    @pytest.mark.parametrize("chi", [3e5, 6.3e6])
    def test_closest_approach_is_not_small_t_noise(self, chi):
        # w = sqrt(1 + chi^2) lies within 2e-6 of an even integer, so the
        # curves only touch near pi and no gap is clearly negative: the
        # search reports the touch at pi, not a rounding-noise point next to
        # t = 0 nor a later multiple of pi.
        assert gqze_interval(chi).end == math.pi

    @pytest.mark.parametrize("chi", [6.4e6, 1e7, 1e160, 1e200, 1e300])
    def test_rejects_chi_beyond_resolvable_range(self, chi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large"):
                gqze_interval(chi)
            with pytest.raises(ValueError, match="too large"):
                indicator_report(chi, 0.01)
            # The twin shares the search's range check; past chi ~ 1e154 it
            # used to divide by a zero step.
            with pytest.raises(ValueError, match="is too large: the survival floor"):
                gqze_interval_grid(chi)


    @pytest.mark.parametrize("chi", [1e-9, 1e-7, 3e-7])
    def test_rejects_chi_below_resolvable_range(self, chi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for search in (gqze_interval, gqze_interval_grid):
                with pytest.raises(ValueError, match="too small"):
                    search(chi)
            with pytest.raises(ValueError, match="too small"):
                indicator_report(chi, 0.01)

    def test_smallest_accepted_chi_crosses_at_quarter_period(self):
        chi = math.sqrt(1e-13)
        while chi * chi <= 1e-13:
            chi = math.nextafter(chi, math.inf)
        with pytest.raises(ValueError, match="too small"):
            gqze_interval(math.nextafter(chi, 0.0))
        windowed = gqze_interval(chi)
        assert windowed == gqze_interval_grid(chi)
        assert windowed.end == pytest.approx(math.pi / 2, abs=1e-12)
        assert not windowed.present


# The accepted chi range of the gqze search, (3.2e-7, 6.3e6), drawn
# log-uniformly so every decade is exercised.
_accepted_chis = st.floats(min_value=math.log10(3.17e-7), max_value=math.log10(6.3e6)).map(
    lambda exponent: 10.0**exponent
)


class TestGqzeCrossingRange:
    """The first crossing lies in (pi/2, pi] for every chi (the lemma and its
    pi-endpoint half in the ``gqze_interval`` docstring), and a touch is
    reported at pi."""

    @settings(max_examples=300)
    @given(chi=_accepted_chis)
    def test_crossing_lies_past_quarter_period_and_by_pi(self, chi):
        end = gqze_interval(chi).end
        assert 0.5 * math.pi < end <= math.pi

    def test_even_frequency_touches_at_pi(self):
        # w = sqrt(1 + chi^2) = 2k: the hindered survival returns to 1 at pi
        # together with the reference, and the curves touch there.
        for k in range(1, 200):
            assert gqze_interval(math.sqrt(4.0 * k * k - 1.0)).end == math.pi

    def test_crossing_between_grid_points_around_pi(self):
        # At chi = 9.95 the last grid point at or below pi has gap +1.5e-9
        # and the next one -3.4e-9, so the window must be scanned past pi.
        chi = 9.95
        w = math.sqrt(1.0 + chi * chi)
        step = 2.0 * math.pi / w / 10_000
        below_pi = math.floor(math.pi / step)
        times = np.arange(below_pi, below_pi + 2) * step
        assert times[0] <= math.pi < times[1]
        before, after = survival_probability(chi, w, times) - survival_probability(0.0, 1.0, times)
        assert before > 1e-13 and after < -1e-13
        end = gqze_interval(chi).end
        assert end == 3.141573019001365
        assert times[0] < end < times[1]

    def test_touch_at_large_chi_reports_pi(self):
        # The dip near pi stays within the 1e-13 tolerance here; a crossing
        # taken from a later window would read 2 pi (period ratio 462211.8).
        chi = 462211.9934130156
        interval = gqze_interval(chi)
        assert interval.end == math.pi
        assert interval.period_ratio == pytest.approx(231106.0, rel=1e-6)
        assert interval.present

    @settings(max_examples=300)
    @given(chi=_accepted_chis.filter(lambda chi: chi > math.sqrt(3.0)))
    def test_present_above_root_three(self, chi):
        # t_chi / T_p lies in (w / 4, w / 2], above 1/2 once w > 2.
        assert gqze_interval(chi, order_threshold=0.5).present

    def test_present_just_above_root_three(self):
        chi = math.nextafter(math.sqrt(3.0), math.inf)
        assert gqze_interval(chi, order_threshold=0.5).present


# Every fourth chi of the twin set, for the checks on other grids.
_GQZE_SPARSE_CHIS = _GQZE_TWIN_CHIS[::4]


def _on_grid(points_per_period):
    """Both gqze searches on ``points_per_period`` points per hindered period
    instead of the fixed 10,000, within the ``with`` block. The window scan's
    rounding bound needs every window to hold more than 64 points with a
    step below pi/58, which holds from 300 points per period."""
    assert points_per_period >= 300
    return mock.patch.object(indicators, "_POINTS_PER_PERIOD", points_per_period)


def _scaled_grid(scale):
    """``_on_grid`` at ``scale`` times fewer points per period than the fixed
    grid, so every window and chunk edge moves; scale 1 is the fixed grid."""
    return _on_grid(round(10_000 / scale))


def _search_without_skips(chi):
    """``gqze_interval`` with its window searched whole by
    ``_chunked_search``, without the certified skips of ``_window_scan``."""
    with mock.patch.object(indicators, "_MAX_SKIP_EVALUATIONS", 0):
        return gqze_interval(chi)


class TestGqzeChunkedScan:
    """The window scan must agree bit for bit with the dense grid, whatever
    the grid and however the windows compare with the first chunk. The
    chunked search it falls back to runs forward in chunks of 1024, 2048,
    ... points and stops at the chunk holding the crossing. The checks named
    after couplings, which the search once took, now vary the grid through
    ``_scaled_grid``."""

    @pytest.mark.parametrize("chi", _GQZE_SPARSE_CHIS)
    @pytest.mark.parametrize("scale", [0.37, 2.3])
    def test_matches_dense_grid_at_other_couplings(self, chi, scale):
        with _scaled_grid(scale):
            assert gqze_interval(chi) == gqze_interval_grid(chi)

    # At 300 points per period every window is shorter than the first chunk;
    # at 1700 the large-chi windows (about 0.64 of that) hold about one
    # chunk; at 40000 they span several chunks.
    @pytest.mark.parametrize("chi", [0.3, 0.9, 1.0, 2.0, math.sqrt(3.0), 5.0, 20.0])
    @pytest.mark.parametrize("points_per_period", [300, 1700, 40_000])
    def test_matches_dense_grid_at_other_densities(self, chi, points_per_period):
        with _on_grid(points_per_period):
            assert gqze_interval(chi) == gqze_interval_grid(chi)

    # A window of reach + 2 points starting just past pi/2. At chi = sqrt(3)
    # the gap is (sin^2(t) / 2)^2 >= 0, so the scan runs through the whole
    # window. The largest window of the fixed grid, 7,077 points, takes
    # three chunks.
    @pytest.mark.parametrize(
        "reach, sizes",
        [
            (1021, [1023]),
            (1022, [1024]),
            (1023, [1024, 1]),
            (9998, [1024, 2048, 4096, 2832]),
            (7075, [1024, 2048, 4005]),
        ],
    )
    def test_chunks_double_and_tile_the_window(self, reach, sizes):
        chi = math.sqrt(3.0)
        step = math.pi / 10_000
        quarter = math.floor(0.5 * math.pi / step)
        window = (quarter + 1, quarter + reach + 2)
        assert quarter * step <= 0.5 * math.pi < window[0] * step
        times_seen = []
        survival = indicators.survival_probability

        def record_survival(chi_value, w, times):
            # Each chunk takes the hindered curve, then the chi = 0 reference.
            if chi_value > 0.0:
                times_seen.append(np.array(times))
            return survival(chi_value, w, times)

        with mock.patch.object(indicators, "survival_probability", record_survival):
            crossing = indicators._chunked_search(chi, 2.0, step, *window)
        assert crossing is None
        assert [times.size for times in times_seen] == sizes
        indices = np.concatenate(times_seen) / step
        assert np.array_equal(np.round(indices), np.arange(window[0], window[1] + 1))

    @pytest.mark.parametrize(
        "chi, points_per_period", [(2.0, 3765), (0.5, 10_000), (2.0, 10_000), (20.0, 10_000)]
    )
    def test_bracket_matches_dense_grid(self, chi, points_per_period):
        # At 3765 points per period the first clearly negative point of
        # chi = 2 opens a chunk, so the bracket's left end is carried over
        # from the chunk before. The bisection would hide a wrong left end.
        brackets = []
        bisect = indicators._bisect_gap

        def record(*args):
            brackets.append(args)
            return bisect(*args)

        with _on_grid(points_per_period), mock.patch.object(indicators, "_bisect_gap", record):
            gqze_interval(chi)
            gqze_interval_grid(chi)
        windowed, dense = brackets
        assert windowed == dense

    # At these large chi the gap stays within the tolerance for over 800
    # points before the crossing, so the bracket's left end lies before the
    # window start: 469 points before it for the first case and 310 for the
    # second. A left end searched only inside the window would miss it. The
    # dense twin's grid is too large here, so the bracket is checked against
    # the gaps of the 5000 grid points before its right end.
    @pytest.mark.parametrize("chi", [3605579.6775528197, 2887103.7364610094])
    def test_large_chi_bracket_starts_before_the_window(self, chi):
        brackets, windows = [], []
        bisect, scan = indicators._bisect_gap, indicators._window_scan

        def record(*args):
            brackets.append(args[2:])
            return bisect(*args)

        def record_scan(chi_value, w, step, first, last, half_angle):
            windows.append(first)
            return scan(chi_value, w, step, first, last, half_angle)

        with mock.patch.object(indicators, "_bisect_gap", record), \
                mock.patch.object(indicators, "_window_scan", record_scan):
            gqze_interval(chi)
        [(left, right)] = brackets
        [first] = windows
        w = math.sqrt(1.0 + chi * chi)
        step = _step(chi)
        right_index = round(right / step)
        assert round(left / step) < first < right_index
        times = np.arange(right_index - 5000, right_index + 1) * step
        assert times[-1] == right
        gap = survival_probability(chi, w, times) - np.cos(times) ** 2
        # The right end is the first clearly negative point, and the left
        # end the last clearly positive point before it.
        assert gap[-1] < -1e-13 and not np.any(gap[:-1] < -1e-13)
        positive = np.nonzero(gap[:-1] > 1e-13)[0]
        assert positive.size and left == times[positive[-1]]

    @pytest.mark.parametrize("chi", [0.05, 0.5, 2.0, 20.0, 1e3, 1e4])
    @pytest.mark.parametrize("scale", [1.0, 2.3])
    def test_no_chunk_runs_after_the_crossing(self, chi, scale):
        times_seen, brackets = [], []
        survival = indicators.survival_probability
        bisect = indicators._bisect_gap

        def record_survival(chi_value, w, times):
            # Each chunk takes the hindered curve, then the chi = 0 reference.
            if chi_value > 0.0:
                times_seen.append(np.array(times))
            return survival(chi_value, w, times)

        def record_bisect(*args):
            brackets.append(args[2:])
            return bisect(*args)

        with mock.patch.object(indicators, "survival_probability", record_survival), \
                mock.patch.object(indicators, "_bisect_gap", record_bisect):
            with _scaled_grid(scale):
                _search_without_skips(chi)
        [(_, right)] = brackets
        # Every numpy call is a forward chunk: each continues the one before,
        # and the last one holds the crossing.
        for before, times in zip(times_seen, times_seen[1:]):
            assert times[0] > before[-1]
        assert right in times_seen[-1]
        assert not any(right in times for times in times_seen[:-1])
        # Chunks double, so the points past the bracket's right end number
        # at most 1024 more than those up to it.
        after = sum(np.count_nonzero(times > right) for times in times_seen)
        up_to = sum(np.count_nonzero(times <= right) for times in times_seen)
        assert after <= up_to + 1024


@st.composite
def _backward_starts(draw):
    """A log-uniform chi up to 100, a grid of 50 to 2000 points per period,
    and a start index up to 1.5 pi on it, so that a brute-force scan from
    index 1 stays below about 1.5e5 points."""
    chi = 10.0 ** draw(st.floats(min_value=math.log10(3.2e-7), max_value=2.0))
    points_per_period = draw(st.integers(min_value=50, max_value=2000))
    step = _step(chi, points_per_period)
    start = draw(st.integers(min_value=1, max_value=math.ceil(1.5 * math.pi / step)))
    return chi, points_per_period, start


def _walked_indices(chi, w, step, crossing):
    """``_bracket_left`` at ``crossing``, and the grid indices whose gaps it
    formed, in order.

    The walk forms each gap from cos(w t) and then cos(t), so every second
    ``math.cos`` argument is a grid time."""
    arguments = []

    def record_cos(x):
        arguments.append(x)
        return math.cos(x)

    spy_math = types.SimpleNamespace(**vars(math))
    spy_math.cos = record_cos
    with mock.patch.object(indicators, "math", spy_math):
        left = indicators._bracket_left(chi, w, step, crossing)
    indices = [round(t / step) for t in arguments[1::2]]
    assert arguments[1::2] == [index * step for index in indices]
    return left, indices


class TestBracketLeftWithoutNumpy:
    """``_bracket_left`` makes no numpy call, however far back the left end
    lies: here about 3,600 points at either end of the accepted chi range."""

    # The crossing index of the search and the left end: at chi = 3.3e-7 it
    # is 0, and at chi = 5373932.526323148 the gap stays within the
    # tolerance for 3,598 points before the crossing.
    @pytest.mark.parametrize(
        "chi, crossing, left",
        [(3.3e-7, 3564, 0), (5373932.526323148, 26_869_663_524, 26_869_659_926)],
    )
    def test_walk_reaches_no_numpy(self, monkeypatch, chi, crossing, left):
        crossings = []
        bracket_left = indicators._bracket_left

        def record(chi_value, w, step, index):
            crossings.append(index)
            return bracket_left(chi_value, w, step, index)

        with mock.patch.object(indicators, "_bracket_left", record):
            gqze_interval(chi)
        assert crossings == [crossing]
        # The brute-force left end, from the gaps of the 4000 points up to
        # the crossing.
        w = math.sqrt(1.0 + chi * chi)
        step = _step(chi)
        times = np.arange(max(crossing - 4000, 1), crossing + 1) * step
        gap = survival_probability(chi, w, times) - np.cos(times) ** 2
        assert gap[-1] < -1e-13
        positive = times[:-1][gap[:-1] > 1e-13]
        assert (positive[-1] if positive.size else 0.0) == left * step

        def no_survival(*args):
            raise AssertionError("survival_probability reached")

        monkeypatch.setattr(indicators, "np", _NoNumpy())
        monkeypatch.setattr(indicators, "survival_probability", no_survival)
        assert indicators._bracket_left(chi, w, step, crossing) == left


@st.composite
def _left_end_cases(draw):
    """A chi, its grid step and brute-force gaps at indices 1 to ``start``
    (from ``_backward_starts``), and a crossing index J on that grid.

    J is either ``start`` + 1 or, for a drawn distance d, d points past a
    clearly positive index p with no clearly positive index between them,
    so that the left end lies d points back from J, from 1 point to 1000."""
    chi, points_per_period, start = draw(_backward_starts())
    w = math.sqrt(1.0 + chi * chi)
    step = _step(chi, points_per_period)
    times = np.arange(1, start + 1) * step
    gap = survival_probability(chi, w, times) - np.cos(times) ** 2
    positive = np.nonzero(gap > 1e-13)[0] + 1
    crossing = start + 1
    back = draw(st.sampled_from([None, 1, 2, 15, 16, 17, 18, 100, 1000]))
    if back is not None and positive.size:
        following = np.append(positive[1:], start + 1)
        candidates = positive[(following - positive >= back) & (positive + back <= start + 1)]
        if candidates.size:
            crossing = int(candidates[draw(st.integers(0, candidates.size - 1))]) + back
    return chi, w, step, positive, crossing


class TestBracketLeft:
    """``_bracket_left`` walks back from the crossing on Python floats, one
    point at a time, down to index 1 at most; it returns the last clearly
    positive index before the crossing, or 0, and numpy computes none of
    the gaps."""

    @settings(max_examples=150)
    @given(case=_left_end_cases())
    def test_matches_brute_force_scan(self, case):
        chi, w, step, positive, crossing = case
        before = positive[positive < crossing]
        expected = int(before[-1]) if before.size else 0
        assert indicators._bracket_left(chi, w, step, crossing) == expected

    @staticmethod
    def _traced_left_end(chi, points_per_period, crossing):
        """``_bracket_left`` at ``crossing``, the brute-force left end, the
        grid indices whose gaps numpy computed, and those the walk formed on
        Python floats, each in order."""
        w = math.sqrt(1.0 + chi * chi)
        step = _step(chi, points_per_period)
        times = np.arange(1, crossing) * step
        gap = survival_probability(chi, w, times) - np.cos(times) ** 2
        positive = np.nonzero(gap > 1e-13)[0] + 1
        computed = []
        survival = indicators.survival_probability

        def record(chi_value, w, times):
            computed.extend(np.round(np.asarray(times) / step).astype(int).tolist())
            return survival(chi_value, w, times)

        with mock.patch.object(indicators, "survival_probability", record):
            left, walked = _walked_indices(chi, w, step, crossing)
        return left, int(positive[-1]) if positive.size else 0, computed, walked

    # At chi = 4e-7 no index before pi/2 is clearly positive, and at chi =
    # 1e-3 on a 50-point grid index 1 already is. Either way the walk covers
    # every index from J - 1 down to the left end (down to 1 for a left end
    # of 0), and numpy computes none of them.
    @pytest.mark.parametrize(
        "chi, points_per_period, crossing, expected",
        [(4e-7, 10_000, 2, 0), (4e-7, 10_000, 17, 0), (4e-7, 10_000, 18, 0),
         (4e-7, 10_000, 2500, 0), (1e-3, 50, 2, 1)],
    )
    def test_left_ends_zero_and_one(self, chi, points_per_period, crossing, expected):
        left, brute_force, computed, walked = self._traced_left_end(
            chi, points_per_period, crossing
        )
        assert left == brute_force == expected
        assert computed == []
        assert walked == list(range(crossing - 1, max(expected, 1) - 1, -1))

    def test_no_clearly_positive_point_gives_left_end_zero(self):
        # At chi = 4e-7 no point before the crossing is clearly positive, so
        # the bracket opens at 0, a few thousand points before the crossing.
        # numpy only computes the chunks of the forward fallback, if it runs.
        chi = 4e-7
        seen, brackets = [], []
        survival = indicators.survival_probability
        bisect = indicators._bisect_gap

        def record_survival(chi_value, w, times):
            # Each chunk takes the hindered curve, then the chi = 0 reference.
            if chi_value > 0.0:
                seen.append(np.array(times))
            return survival(chi_value, w, times)

        def record_bisect(*args):
            brackets.append(args[2:])
            return bisect(*args)

        with mock.patch.object(indicators, "survival_probability", record_survival), \
                mock.patch.object(indicators, "_bisect_gap", record_bisect):
            windowed = gqze_interval(chi)
        [(left, right)] = brackets
        assert left == 0.0
        assert windowed == gqze_interval_grid(chi)
        step = _step(chi)
        right_index = round(right / step)
        w = math.sqrt(1.0 + chi * chi)
        assert indicators._bracket_left(chi, w, step, right_index) == 0
        assert 1000 < right_index < 10_000
        for before, times in zip(seen, seen[1:]):
            assert times[0] > before[-1]

    # At chi = 2e-6 the gap's first positive lobe clears 1e-13 only on a band
    # of grid points that ends about 110 points before pi/2 (index 2500),
    # and the first clearly negative point lies about 80 points past pi/2. A
    # crossing placed ``back`` points past the band's last index puts the
    # left end that far back: the walk forms exactly ``back`` gaps, and
    # numpy none.
    @pytest.mark.parametrize("back", [1, 2, 15, 16, 17, 18, 150])
    def test_left_end_back_from_the_crossing(self, back):
        chi = 2e-6
        _, band_end, _, _ = self._traced_left_end(chi, 10_000, 2500)
        assert 2300 < band_end < 2400
        crossing = band_end + back
        left, brute_force, computed, walked = self._traced_left_end(chi, 10_000, crossing)
        assert left == brute_force == band_end
        assert computed == []
        assert walked == list(range(crossing - 1, band_end - 1, -1))


def _step(chi, points_per_period=10_000):
    """The grid step of the gqze search, formed as ``_gqze_search`` forms it."""
    return 2.0 * math.pi / math.sqrt(1.0 + chi * chi) / points_per_period


def _dense_bracket(chi, points_per_period=10_000):
    """The (left, right) bracket that ``gqze_interval_grid`` bisects."""
    brackets = []
    bisect = indicators._bisect_gap

    def record(*args):
        brackets.append(args[2:])
        return bisect(*args)

    with _on_grid(points_per_period), mock.patch.object(indicators, "_bisect_gap", record):
        gqze_interval_grid(chi)
    [bracket] = brackets
    return bracket


def _skip_scan_indices(chi, points_per_period=10_000):
    """The grid indices whose gaps the certified-skip scan of
    ``gqze_interval`` forms on Python floats, in order.

    The scan forms each gap from cos(w t) and then cos(t), so every second
    ``math.cos`` argument is a grid time. The walk back for the bracket's
    left end and the bisection are stubbed out, so their own cosines are not
    recorded."""
    arguments = []

    def record_cos(x):
        arguments.append(x)
        return math.cos(x)

    spy_math = types.SimpleNamespace(**vars(math))
    spy_math.cos = record_cos
    with _on_grid(points_per_period), mock.patch.object(indicators, "math", spy_math), \
            mock.patch.object(indicators, "_bracket_left", lambda chi, w, step, crossing: 0), \
            mock.patch.object(indicators, "_bisect_gap", lambda chi, w, left, right: right):
        gqze_interval(chi)
    step = _step(chi, points_per_period)
    indices = [round(t / step) for t in arguments[1::2]]
    assert arguments[1::2] == [index * step for index in indices]
    return indices


# The touch family w = sqrt(1 + chi^2) = 2k, with each chi's two float
# neighbours and relative offsets of 1e-9 either way: near a touch the gap
# decays like (pi - t)^4 and the certified skips shrink to one grid point.
def _touch_family(ks):
    for k in ks:
        chi = math.sqrt(4.0 * k * k - 1.0)
        yield from (
            chi, math.nextafter(chi, 0.0), math.nextafter(chi, math.inf),
            chi * (1.0 + 1e-9), chi * (1.0 - 1e-9),
        )


@st.composite
def _dense_feasible_grids(draw):
    """Points per period in [300, 20000] and a log-uniform chi from the
    bottom of the accepted range up to where the dense twin's grid holds
    about 2e6 points."""
    points_per_period = draw(st.integers(min_value=300, max_value=20_000))
    top = math.log10(4e6 / points_per_period)
    chi = 10.0 ** draw(st.floats(min_value=math.log10(3.2e-7), max_value=top))
    return chi, points_per_period


class TestGqzeSkipScan:
    """The window scan of ``gqze_interval`` skips the grid points that the
    slope bound in its docstring certifies are not clearly negative, and
    hands the rest of the window to ``_chunked_search`` after
    _MAX_SKIP_EVALUATIONS gaps.
    It finds the first clearly negative point of the dense grid, and so the
    dense twin's bracket and t_chi, bit for bit."""

    @pytest.mark.parametrize("chi", [1e-3, 0.05, 0.5, 0.6, 2.0, 9.95, 20.0, 300.0])
    @pytest.mark.parametrize("points_per_period", [1000, 10_000])
    def test_never_evaluates_past_the_first_clearly_negative_point(self, chi, points_per_period):
        indices = _skip_scan_indices(chi, points_per_period)
        _, right = _dense_bracket(chi, points_per_period)
        first_negative = round(right / _step(chi, points_per_period))
        assert indices and max(indices) <= first_negative
        assert indices == sorted(set(indices))

    def test_stops_at_the_first_clearly_negative_point(self):
        # Away from a touch (w far from an even integer) the scan itself
        # lands on the dense grid's first clearly negative point, within its
        # budget of gaps. At chi = 20 or 300, w is within 0.03 of an even
        # integer, and the scan falls back.
        for chi in (0.3, 2.0, 5.0, 21.0, 301.0, 1001.0):
            indices = _skip_scan_indices(chi)
            _, right = _dense_bracket(chi)
            assert len(indices) < indicators._MAX_SKIP_EVALUATIONS
            assert indices[-1] * _step(chi) == right

    @pytest.mark.parametrize("chi", list(_touch_family(range(1, 31))))
    def test_touch_family_matches_dense_grid(self, chi):
        assert gqze_interval(chi) == gqze_interval_grid(chi)

    @pytest.mark.parametrize("chi", list(_touch_family([50, 100, 199])))
    def test_touch_family_matches_dense_grid_at_large_k(self, chi):
        with _on_grid(1000):
            assert gqze_interval(chi) == gqze_interval_grid(chi)

    @settings(max_examples=200)
    @given(grid=_dense_feasible_grids())
    def test_matches_dense_grid_property(self, grid):
        chi, points_per_period = grid
        with _on_grid(points_per_period):
            assert gqze_interval(chi) == gqze_interval_grid(chi)

    # 9.95 and 19.95 cross just past a near-touch, and 0.6 crosses where the
    # gap creeps down, so each uses up its 64 gaps; the smaller budgets force
    # the fallback anywhere.
    @pytest.mark.parametrize(
        "chi, budget",
        [(9.95, 64), (19.95, 64), (0.6, 64), (0.05, 1), (2.0, 2), (20.0, 3), (300.0, 5)],
    )
    def test_fallback_bracket_matches_dense_grid(self, chi, budget):
        starts, brackets = [], []
        chunked, bisect = indicators._chunked_search, indicators._bisect_gap

        def record_chunked(chi_value, w, step, start, stop):
            starts.append(start)
            return chunked(chi_value, w, step, start, stop)

        def record_bisect(*args):
            brackets.append(args[2:])
            return bisect(*args)

        with mock.patch.object(indicators, "_MAX_SKIP_EVALUATIONS", budget), \
                mock.patch.object(indicators, "_chunked_search", record_chunked), \
                mock.patch.object(indicators, "_bisect_gap", record_bisect):
            windowed = gqze_interval(chi)
        assert windowed == gqze_interval_grid(chi)
        [bracket] = brackets
        assert bracket == _dense_bracket(chi)
        # The fallback starts past the window start: the budget was spent.
        [start] = starts
        assert start > math.floor((math.pi - indicators._window_half_angle(chi)) / _step(chi)) - 2

    # The rounding bound of the skip scan (the Rounding paragraph of
    # ``gqze_interval``) needs more than 64 window points and a step below
    # pi/58. The windows are longest for chi up to 1 and near sqrt(3), and
    # the grid is finest at the top of the accepted range.
    @pytest.mark.parametrize("chi", [3.2e-7, 1.0, math.sqrt(3.0), 6.2e6])
    def test_window_meets_the_rounding_premise(self, chi):
        windows = []
        scan = indicators._window_scan

        def record_scan(chi_value, w, step, first, last, half_angle):
            windows.append((step, first, last))
            return scan(chi_value, w, step, first, last, half_angle)

        with mock.patch.object(indicators, "_window_scan", record_scan):
            gqze_interval(chi)
        [(step, first, last)] = windows
        assert last - first + 1 > indicators._MAX_SKIP_EVALUATIONS
        assert step < math.pi / 58
        assert 5000 < last - first + 1 < 7100


# The gqze search accepts chi in (3.2e-7, 6.3e6); draw it log-uniformly so
# every decade is exercised, not only the top of the range.
_searchable_chis = st.floats(min_value=math.log10(3.2e-7), max_value=math.log10(6e6)).map(
    lambda exponent: 10.0**exponent
)
_grids = st.integers(min_value=1000, max_value=20_000)


def _search_brackets(chi, points_per_period):
    """The (chi, w, left, right) arguments of every bisection that
    ``gqze_interval`` starts on a grid of ``points_per_period`` points per
    hindered period, recorded from a real search."""
    calls = []
    bisect = indicators._bisect_gap

    def record(*args):
        calls.append(args)
        return bisect(*args)

    with _on_grid(points_per_period), mock.patch.object(indicators, "_bisect_gap", record):
        gqze_interval(chi)
    return calls


class TestBisectGap:
    """The gqze bisection is shared by ``gqze_interval`` and its dense twin,
    so their agreement cannot catch a change in it; these pin it to the
    80-halving oracle instead."""

    @settings(max_examples=150)
    @given(chi=_searchable_chis, grid=_grids)
    def test_matches_80_halving_oracle_on_search_brackets(self, chi, grid):
        calls = _search_brackets(chi, grid)
        for args in calls:
            assert indicators._bisect_gap(*args) == bisect_gap_oracle(*args)

    # Near the top of the range most chi only touch at pi; 6100001 crosses.
    @pytest.mark.parametrize("chi", [3.2e-7, 0.05, 1.0, 2.3, 20.0, 3e3, 6100001.0])
    @pytest.mark.parametrize("scale", [1.0, 2.3])
    def test_matches_80_halving_oracle_at_range_edges(self, chi, scale):
        calls = _search_brackets(chi, round(10_000 / scale))
        assert calls
        for args in calls:
            assert indicators._bisect_gap(*args) == bisect_gap_oracle(*args)

    def test_scalar_gap_matches_survival_probability_in_bulk(self):
        # The squares must round as numpy's array path does; a one-ulp
        # difference shows in about 1 of 2000 draws, too rarely for the
        # property below to see it reliably.
        rng = np.random.default_rng(2024)
        for chi, t in zip(
            10.0 ** rng.uniform(-6.5, 6.78, 20_000), rng.uniform(0.0, 30.0, 20_000)
        ):
            chi, t = float(chi), float(t)
            w = math.sqrt(1.0 + chi * chi)
            assert oracles.scalar_gap(chi * chi, w, t) == oracles.array_gap(chi, w, t)

    @settings(max_examples=300)
    @given(
        chi=st.floats(min_value=0.0, max_value=6e6),
        t=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_scalar_gap_matches_survival_probability(self, chi, t):
        w = math.sqrt(1.0 + chi * chi)
        assert oracles.scalar_gap(chi * chi, w, t) == oracles.array_gap(chi, w, t)


class TestGqzeQuarterPeriodSkip:
    """The lemma of ``gqze_interval`` puts the gap at or above 0 for t <=
    pi/2. Above chi of about 1 only the search for the bracket's left end
    could sample there; below it the window also starts a few points before
    pi/2."""

    @settings(max_examples=300)
    @given(
        chi=st.floats(min_value=math.log10(3.2e-7), max_value=math.log10(6.3e6)).map(
            lambda exponent: 10.0**exponent
        ),
        t=st.floats(min_value=0.0, max_value=0.5 * math.pi),
    )
    def test_gap_is_not_clearly_negative_before_quarter_period(self, chi, t):
        w = math.sqrt(1.0 + chi * chi)
        assert oracles.scalar_gap(chi * chi, w, t) >= -1e-13
        times = np.append(np.linspace(0.0, 0.5 * math.pi, 1001), t)
        gap = survival_probability(chi, w, times) - survival_probability(0.0, 1.0, times)
        assert gap.min() >= -1e-13

    @pytest.mark.parametrize("chi", [2.0, 20.0, 1e3, 1e4])
    def test_points_before_quarter_period_are_one_short_seed(self, chi):
        # Here the window starts past pi/2 and the left end lies next to the
        # crossing, so neither numpy nor the scalar code samples a time at or
        # before pi/2. The scalar code forms each gap from cos(w t) and then
        # cos(t), so every second ``math.cos`` argument is a time it samples.
        times_seen, arguments = [], []
        survival = indicators.survival_probability

        def record_survival(chi_value, w, times):
            times_seen.append(np.array(times))
            return survival(chi_value, w, times)

        def record_cos(x):
            arguments.append(x)
            return math.cos(x)

        spy_math = types.SimpleNamespace(**vars(math))
        spy_math.cos = record_cos
        with mock.patch.object(indicators, "survival_probability", record_survival), \
                mock.patch.object(indicators, "math", spy_math):
            gqze_interval(chi)
        assert not [times for times in times_seen if np.any(times <= 0.5 * math.pi)]
        assert not [t for t in arguments[1::2] if t <= 0.5 * math.pi]

    # Below chi ~ 2e-6 no gap up to pi/2 clears 1e-13 and the walk goes back
    # to 0; above it the left end lies a few points before the crossing.
    @pytest.mark.parametrize("chi", [4e-7, 1e-6, 2e-6, 3e-6, 1e-3, 0.5, 1.0, 5.0])
    def test_seeded_bracket_matches_dense_grid(self, chi):
        brackets = []
        bisect = indicators._bisect_gap

        def record(*args):
            brackets.append(args)
            return bisect(*args)

        with mock.patch.object(indicators, "_bisect_gap", record):
            gqze_interval(chi)
            gqze_interval_grid(chi)
        windowed, dense = brackets
        assert windowed == dense


def _bits(value: float) -> int:
    """The float's bit pattern, so that -0.0 and 0.0 differ."""
    return struct.unpack("<q", struct.pack("<d", value))[0]


# Grid sizes of the whole-grid comparisons, around multiples of 8192 points
# and at the fixed 100,000.
_TWIN_SAMPLES = [1, 2, 3, 8191, 8192, 8193, 16385, 100_000]
_twin_chis = st.one_of(
    st.sampled_from(
        [0.0, 5e-324, 1e-300, 3.2e-7, 1 / math.sqrt(2), 1.0, math.sqrt(3.0), math.sqrt(8.0), 100.0]
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
_twin_samples = st.one_of(st.sampled_from(_TWIN_SAMPLES), st.integers(1, 40_000))


def _assert_extrema_match_whole_grid(chi, samples):
    with mock.patch.object(indicators, "_MIN_GRID_SAMPLES", samples):
        grid_min = min_survival_grid(chi)
    assert _bits(grid_min) == _bits(oracles.min_survival_grid_reference(chi, samples))
    # The survival is unimodal on the first half period, so the first argmin
    # of an evenly spaced grid there lies within one step of the minimum,
    # and the bracketed argmin within rounding (about 1e-8) of it.
    stop = 0.5 * poincare_time(chi)
    times = np.linspace(0.0, stop, samples)
    grid_argmin = times[int(np.argmin(survival_probability(chi, angular_frequency(chi), times)))]
    step = stop / max(samples - 1, 1)
    assert abs(time_of_min_grid(chi) - grid_argmin) <= step + 1e-7


class TestChunkedTwins:
    """The full-grid twins, ``min_survival_grid`` in one pass and the dense
    gqze scan in chunks of 8192 points, return, bit for bit, what the
    whole-grid references in ``oracles`` return. The bracketed argmin and
    the bisected measure agree with whole grids to within the grid's
    resolution."""

    @pytest.mark.parametrize("samples", _TWIN_SAMPLES)
    @pytest.mark.parametrize("chi", [0.0, 1e-300, 0.3, 1.0, math.sqrt(3.0), math.sqrt(8.0), 100.0])
    def test_grid_extrema_match_whole_grid(self, chi, samples):
        _assert_extrema_match_whole_grid(chi, samples)

    @settings(max_examples=60, deadline=None)
    @given(chi=_twin_chis, samples=_twin_samples)
    def test_grid_extrema_match_whole_grid_property(self, chi, samples):
        _assert_extrema_match_whole_grid(chi, samples)

    @settings(max_examples=40, deadline=None)
    @given(
        chi=_twin_chis,
        samples=st.one_of(st.sampled_from(_TWIN_SAMPLES + [400_000]), st.integers(1, 40_000)),
        epsilon=st.sampled_from([1e-12, 0.01, 0.3]),
    )
    def test_sub_threshold_measure_matches_whole_grid(self, chi, samples, epsilon):
        # A midpoint count over the whole period places each of the at most
        # four roots of P - threshold to within half a cell.
        period = poincare_time(chi)
        step = period / samples
        times = np.arange(0.5, samples) * step
        below = survival_probability(chi, angular_frequency(chi), times) < (
            mean_survival(chi) - epsilon
        )
        counted = int(np.count_nonzero(below)) * step
        assert abs(sub_threshold_measure_grid(chi, epsilon) - counted) <= 2.0 * step + 1e-8 * period

    # Dense-scan cases that take the no-crossing fallback, pi: commensurate
    # ratios w = 2k that touch over several chunks without crossing.
    @pytest.mark.parametrize(
        "chi", [math.sqrt(3.0), math.sqrt(15.0), math.sqrt(35.0), math.sqrt(399.0)]
    )
    def test_dense_scan_fallback_matches_whole_grid(self, chi):
        brackets = []
        bisect = indicators._bisect_gap

        def record(*args):
            brackets.append(args)
            return bisect(*args)

        with mock.patch.object(indicators, "_bisect_gap", record):
            chunked = gqze_interval_grid(chi)
        assert not brackets
        assert chunked.end == math.pi
        assert chunked == oracles.gqze_interval_grid_reference(chi)

    @settings(max_examples=60, deadline=None)
    @given(
        chi=st.one_of(
            st.sampled_from([3.3e-7, 0.3, 1.0, math.sqrt(3.0), math.sqrt(8.0), 5.0, 100.0]),
            st.floats(min_value=math.log10(3.3e-7), max_value=2.0).map(lambda e: 10.0**e),
        ),
        points_per_period=st.one_of(st.just(10_000), st.integers(300, 20_000)),
    )
    def test_dense_scan_matches_whole_grid(self, chi, points_per_period):
        with _on_grid(points_per_period):
            assert gqze_interval_grid(chi) == oracles.gqze_interval_grid_reference(chi)

    @pytest.mark.parametrize(
        "twin",
        [
            lambda: sub_threshold_measure_grid(1.0, 0.01),
            lambda: gqze_interval_grid(5.0),
        ],
        ids=["sub_threshold_measure_grid", "gqze_interval_grid"],
    )
    def test_peak_memory_is_flat(self, twin):
        twin()  # warm up: imports and first-call caches
        tracemalloc.start()
        try:
            twin()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


_bracketed_chis = st.one_of(
    st.sampled_from([0.0, 1e-300, 1.0, math.sqrt(3.0)]),
    st.floats(min_value=-3.0, max_value=4.0).map(lambda exponent: 10.0**exponent),
)
_epsilon_shares = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


def _measure_deviation(chi, epsilon):
    """|closed - twin| of the sub-threshold measure, in periods."""
    closed = sub_threshold_measure(chi, epsilon)
    return abs(closed - sub_threshold_measure_grid(chi, epsilon)) / poincare_time(chi)


class TestBracketedTwins:
    """The bracketed argmin and the bisected measure against the closed
    forms, for every epsilon in (0, mean - floor]."""

    @settings(max_examples=200, deadline=None)
    @given(chi=_bracketed_chis, share=_epsilon_shares)
    def test_agree_with_closed_forms(self, chi, share):
        assert abs(time_of_min_grid(chi) - time_of_min(chi)) <= 1e-7
        epsilon = share * (mean_survival(chi) - min_survival(chi))
        assume(epsilon > 0)
        # Where the threshold nears the survival at the half period (the
        # floor for chi > 1), two roots of P - threshold merge there, and a
        # rounding u in cos(wt) moves the measure by up to sqrt(2 u) / pi
        # periods. Both routes round chi^2 + cos(wt) to about ulp(1 + chi^2):
        # the twin in the survival formula, the closed form in its bound
        # root (1 + chi^2) - chi^2. Measured against 60-digit references, the
        # routes were 1.9e-8 periods apart at chi = 5.46 and 2.7e-5 at
        # chi = 6748.
        resolution = math.sqrt(6.0 * math.ulp(1.0 + chi * chi)) / math.pi
        assert _measure_deviation(chi, epsilon) <= 1e-8 + resolution

    @settings(max_examples=200, deadline=None)
    @given(chi=st.sampled_from([0.3, 0.7, 1.0, 2.0]), share=_epsilon_shares)
    def test_validate_chis_agree_for_every_epsilon(self, chi, share):
        # validate's measure row holds at its tolerance for any user epsilon.
        epsilon = share * (mean_survival(chi) - min_survival(chi))
        assume(epsilon > 0)
        assert _measure_deviation(chi, epsilon) <= 1e-8

    @pytest.mark.parametrize("chi", [0.3, 2.0])
    def test_finds_an_interval_narrower_than_any_grid_cell(self, chi):
        # At 1 - 1e-6 of mean - floor, the sub-threshold interval is about
        # 1e-3 T_p wide around the first minimum, narrower than one cell of
        # a 1024-cell period grid.
        epsilon = (mean_survival(chi) - min_survival(chi)) * (1.0 - 1e-6)
        period = poincare_time(chi)
        closed = sub_threshold_measure(chi, epsilon)
        assert 0.0 < closed < period / 1024
        assert _measure_deviation(chi, epsilon) <= 1e-8

    @pytest.mark.parametrize(
        "chi, epsilon", [(0.3, 0.01), (0.7, 0.2162), (2.0, 0.05), (50.0, 1e-5)]
    )
    def test_crossing_is_a_fixed_point_between_adjacent_floats(self, chi, epsilon):
        # The root of the first piece, [0, t*], is one of two adjacent
        # floats on either side of the threshold.
        w = angular_frequency(chi)
        threshold = mean_survival(chi) - epsilon
        first = time_of_min_grid(chi)
        assert survival_probability(chi, w, first) < threshold <= survival_probability(chi, w, 0.0)
        root = indicators._threshold_crossing(chi, w, threshold, first, 0.0)
        if survival_probability(chi, w, root) < threshold:
            assert survival_probability(chi, w, math.nextafter(root, 0.0)) >= threshold
        else:
            assert survival_probability(chi, w, math.nextafter(root, first)) < threshold

    def test_twins_do_not_call_the_closed_forms(self, monkeypatch):
        expected = (time_of_min_grid(0.7), sub_threshold_measure_grid(0.7, 0.01))

        def closed_form(*args, **kwargs):
            raise AssertionError("a numeric twin called a closed form")

        for name in ("time_of_min", "min_survival", "sub_threshold_measure"):
            monkeypatch.setattr(indicators, name, closed_form)
        assert (time_of_min_grid(0.7), sub_threshold_measure_grid(0.7, 0.01)) == expected

    def test_sample_counts(self, monkeypatch):
        sizes = []
        survival = indicators.survival_probability

        def record(chi, w, t):
            sizes.append(np.size(t))
            return survival(chi, w, t)

        monkeypatch.setattr(indicators, "survival_probability", record)
        time_of_min_grid(0.3)
        assert sizes == [1024] * 3
        sizes.clear()
        sub_threshold_measure_grid(0.3, 0.01)
        # Three argmin rounds, the five nodes, then one sample per halving.
        assert sizes[:4] == [1024, 1024, 1024, 5]
        assert set(sizes[4:]) == {1}
        assert 4 * 45 <= len(sizes) - 4 <= 4 * 80


class TestGqzeGridArguments:
    """The gqze searches lay out their fixed grid from chi alone. The window
    holds at most 7,077 points at any chi; the dense twin's grid, from index
    1, grows with chi and is bounded at 2e8 points."""

    # The dense grid holds about 5,000 chi points, past 2e8 above chi ~ 4e4.
    # The twin refuses it before laying out any of it, while the windowed
    # search answers.
    @pytest.mark.parametrize("chi", [1e5, 1e6, 6e6])
    def test_rejects_dense_grid_beyond_point_bound(self, chi):
        assert gqze_interval(chi).end <= math.pi
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                    ValueError, match=r"^the dense gqze grid at chi = .* more than 2e8 grid points$"
                ):
                    gqze_interval_grid(chi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_large_window_scan_has_flat_memory(self):
        # The window of chi = sqrt(3), 6,673 points, searched whole by the
        # chunked search: at chunks of at most 4096 points the peak stays
        # near 90 KiB.
        def search():
            with mock.patch.object(indicators, "_MAX_SKIP_EVALUATIONS", 0):
                return gqze_interval(math.sqrt(3.0))

        search()
        tracemalloc.start()
        try:
            assert search().end == math.pi
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18


class TestReportsAndSweep:
    @pytest.mark.parametrize("chi", [0.3, 2.0, 7.3])
    def test_report_forms_the_level_means_once(self, chi):
        calls = []
        levels = indicators.mean_level_probabilities

        def record(chi_value):
            calls.append(chi_value)
            return levels(chi_value)

        with mock.patch.object(indicators, "mean_level_probabilities", record):
            report = indicator_report(chi, 0.01)
        assert calls == [chi]
        assert report.sub_threshold_time == sub_threshold_measure(chi, 0.01)
        assert report.survival_mean == mean_survival(chi)

    def test_single_point_sweep(self):
        report = indicator_report(0.0, 0.01)
        assert report.survival_min == 0.0
        assert report.survival_mean == pytest.approx(0.5)
        assert report.poincare_period == pytest.approx(2 * math.pi)
        assert report.gqze is None

    def test_floor_lifts_off_at_unit_ratio(self):
        grid = np.round(np.arange(0, 301) * 0.01, 12)
        reports = [indicator_report(float(chi), 0.01) for chi in grid]
        floors = np.array([r.survival_min for r in reports])
        nonzero = grid[floors > 0]
        assert nonzero.min() == pytest.approx(1.01, abs=0.011)
        assert floors[grid <= 1.0].max() == 0.0

    def test_mean_minimum_within_grid_resolution(self):
        grid = np.round(np.arange(0, 201) * 0.01, 12)
        reports = [indicator_report(float(chi), 0.01) for chi in grid]
        means = np.array([r.survival_mean for r in reports])
        assert grid[int(np.argmin(means))] == pytest.approx(1 / math.sqrt(2), abs=0.01)

    def test_report_invariants(self):
        for chi in (0.0, 0.5, 1.0, 2.0, 10.0):
            report = indicator_report(chi, 0.01)
            total = report.survival_mean + report.level2_mean + report.level3_mean
            assert total == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= report.survival_min <= report.survival_mean <= 1.0
            assert 0.0 <= report.sub_threshold_time <= report.poincare_period

    def test_strict_mean_floor_gap_on_grid(self):
        for chi in np.round(np.arange(1, 501) * 0.02, 12).tolist():
            assert mean_survival(chi) > min_survival(chi), chi
