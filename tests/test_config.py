import math

import pytest

from zenoion.config import ConfigError, RunConfig, load_config
from zenoion.fock import ModeVector


class TestLoadConfigFlagsOnly:
    def test_minimal_survival_flags(self):
        config = load_config(
            None, {"mode": "survival", "chi": 10.0, "t_max": 12.56, "samples": 1000}
        )
        assert config.mode == "survival"
        assert config.chi == 10.0
        assert config.t_max == 12.56
        assert config.samples == 1000

    def test_defaults(self):
        config = load_config(None, {"mode": "figures"})
        assert config.t_max == pytest.approx(4 * math.pi)
        assert config.samples == 1000
        assert config.epsilon == 0.01
        assert config.order_threshold == 0.5
        assert config.out == "out"

    def test_mode_required(self):
        with pytest.raises(ConfigError):
            load_config(None, {})

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            load_config(None, {"mode": "figures", "bogus": 1})


class TestCouplingSources:
    def test_gamma_pair_resolves_chi_of_one(self):
        config = load_config(
            None,
            {
                "mode": "indicators",
                "n": "1,0,0",
                "r": "1,0,0",
                "l": "1,0,0",
                "gamma1": 1.0,
                "gamma2": 1.0,
            },
        )
        couplings = config.coupling_constants()
        assert couplings.gamma1 == 1.0
        assert couplings.gamma2 == 1.0
        assert config.mode_vector() == ModeVector(1, 0, 0)

    def test_gamma_and_chi_is_ambiguous(self):
        with pytest.raises(ConfigError, match="ambiguous"):
            load_config(
                None,
                {"mode": "survival", "gamma1": 1.0, "gamma2": 1.0, "chi": 2.0},
            )

    def test_drive_pairs_and_chi_is_ambiguous(self):
        with pytest.raises(ConfigError, match="ambiguous"):
            load_config(
                None,
                {
                    "mode": "survival",
                    "omega_a": 1.0,
                    "eta_a": 0.1,
                    "omega_b": 1.0,
                    "eta_b": 0.1,
                    "chi": 2.0,
                },
            )

    def test_partial_gamma_pair(self):
        with pytest.raises(ConfigError, match="together"):
            load_config(None, {"mode": "survival", "gamma1": 1.0})

    def test_partial_drive_quad(self):
        with pytest.raises(ConfigError, match="together"):
            load_config(None, {"mode": "survival", "omega_a": 1.0, "eta_a": 0.1})

    def test_coupled_mode_requires_source(self):
        with pytest.raises(ConfigError, match="coupling source"):
            load_config(None, {"mode": "survival"})

    def test_figures_needs_no_source(self):
        assert load_config(None, {"mode": "figures"}).mode == "figures"

    def test_chi_override_excludes_pattern(self):
        with pytest.raises(ConfigError, match="replaces"):
            load_config(None, {"mode": "survival", "chi": 2.0, "n": "1,0,0"})

    def test_chi_override_uses_carrier_block(self):
        config = load_config(None, {"mode": "survival", "chi": 2.0})
        assert config.mode_vector() == ModeVector(0, 0, 0)
        assert config.sideband_pattern().r == (0, 0, 0)
        couplings = config.coupling_constants()
        assert couplings.gamma1 == 1.0
        assert couplings.gamma2 == 2.0

    def test_drive_pairs_resolve_through_lamb_dicke_factors(self):
        config = load_config(
            None,
            {
                "mode": "survival",
                "omega_a": 1.0,
                "eta_a": 0.1,
                "omega_b": 2.0,
                "eta_b": 0.1,
            },
        )
        couplings = config.coupling_constants()
        assert abs(couplings.gamma1) == pytest.approx(0.1 * math.exp(-0.005))
        assert abs(couplings.gamma2) == pytest.approx(0.2 * math.exp(-0.005))


class TestValidation:
    def test_samples_minimum(self):
        with pytest.raises(ConfigError, match="samples"):
            load_config(None, {"mode": "figures", "samples": 1})

    def test_samples_maximum(self):
        load_config(None, {"mode": "figures", "samples": 10**6})
        with pytest.raises(ConfigError, match="samples must be <= 1000000"):
            load_config(None, {"mode": "figures", "samples": 10**6 + 1})

    def test_t_max_positive(self):
        with pytest.raises(ConfigError, match="t_max"):
            load_config(None, {"mode": "figures", "t_max": 0.0})

    def test_negative_chi(self):
        with pytest.raises(ConfigError, match="chi"):
            load_config(None, {"mode": "survival", "chi": -1.0})

    # A component is read by the rule of every integer field, int(str(v)),
    # so a float or a bool component is refused as "1,2.5,0" is, not
    # truncated.
    @pytest.mark.parametrize("value", ["1,0", (1, 2.5, 0), (True, 0, 0), [1.9, 0, 0]])
    def test_bad_triple(self, value):
        with pytest.raises(ConfigError, match="n"):
            load_config(None, {"mode": "figures", "n": value})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            load_config(None, {"mode": "plot"})

    def test_order_threshold_range(self):
        with pytest.raises(ConfigError, match="order_threshold"):
            load_config(None, {"mode": "figures", "order_threshold": 1.5})

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(None, {"mode": "validate", "seed": -1})


class TestConfigFile:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\n"
            "mode = indicators\n"
            "\n"
            "[state]\n"
            "n = 1,0,0\n"
            "r = 1,0,0\n"
            "l = 1,0,0\n"
            "\n"
            "[couplings]\n"
            "gamma1 = 1.0\n"
            "gamma2 = 1.0\n"
            "\n"
            "[grid]\n"
            "t_max = 6.28\n"
            "samples = 500\n"
            "epsilon = 0.02\n"
            "\n"
            "[output]\n"
            "path = results\n",
            encoding="utf-8",
        )
        config = load_config(str(path), {"mode": None})
        assert config.mode == "indicators"
        assert config.n == (1, 0, 0)
        assert config.samples == 500
        assert config.epsilon == 0.02
        assert config.out == "results"

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nmode = survival\n[couplings]\nchi = 1.0\n[grid]\nsamples = 100\n",
            encoding="utf-8",
        )
        config = load_config(str(path), {"samples": 250})
        assert config.samples == 250
        assert config.chi == 1.0

    def test_file_declaring_two_sources_fails(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nmode = survival\n[couplings]\ngamma1 = 1\ngamma2 = 1\nchi = 2\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="ambiguous"):
            load_config(str(path), {})

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nmode = figures\n[plotting]\ncolor = red\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="plotting"):
            load_config(str(path), {})

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nmode = figures\nspeed = 9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="speed"):
            load_config(str(path), {})

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run\nmode = figures\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(str(path), {})

    @pytest.mark.parametrize("text", ["junk\n", "[run\nmode = figures\n", "[run]\nx\n"])
    def test_parse_error_is_one_line(self, tmp_path, text):
        # configparser spreads these messages over several lines.
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="line") as caught:
            load_config(str(path), {})
        assert "\n" not in str(caught.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"), {})

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nmode = figures\n[grid]\nt_max = fast\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="t_max"):
            load_config(str(path), {})


class TestRunConfigDirect:
    def test_frozen(self):
        config = RunConfig(mode="figures")
        with pytest.raises(AttributeError):
            config.mode = "sweep"

    def test_default_pattern_gives_gamma_ratio(self):
        config = RunConfig(mode="indicators", gamma1=2.0, gamma2=3.0)
        assert config.mode_vector() == ModeVector(1, 0, 0)
        assert config.sideband_pattern().r == (1, 0, 0)
        assert config.sideband_pattern().l == (0, 0, 0)
