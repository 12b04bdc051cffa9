"""The package API: the union of the five module ``__all__`` lists."""

import zenoion
from zenoion import config, dynamics, fock, indicators, runner

MODULES = (config, dynamics, fock, indicators, runner)

PUBLIC_NAMES = [
    "BlockSystem",
    "ConfigError",
    "CouplingConstants",
    "DegenerateCouplingError",
    "GqzeInterval",
    "IndicatorReport",
    "InvalidSubspaceError",
    "LaserDrive",
    "MODES",
    "ModeVector",
    "RunConfig",
    "SidebandPattern",
    "ValidationCheck",
    "ValidationReport",
    "VibronicState",
    "__version__",
    "build_block",
    "chi_ratio",
    "classify_block",
    "coupling_alpha",
    "coupling_beta",
    "factorial_ratio_root",
    "gqze_interval",
    "indicator_report",
    "level_probabilities",
    "load_config",
    "mean_level_probabilities",
    "mean_survival",
    "min_survival",
    "poincare_time",
    "propagate_analytic",
    "propagate_oracle",
    "run_evolve",
    "run_figures",
    "run_indicators",
    "run_survival",
    "run_sweep",
    "run_validate",
    "sub_threshold_measure",
    "survival_probability",
    "time_of_min",
]


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 41
    assert sorted(zenoion.__all__) == PUBLIC_NAMES


def test_each_name_is_the_object_of_its_defining_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(zenoion, name) is getattr(module, name), name
    assert zenoion.__version__ == "0.1.0"


def test_module_lists_are_disjoint():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 40


# Importable from their modules by name, but not part of the package API.
KEPT_OUT = {
    config: ["MAX_GRID_POINTS"],
    dynamics: ["BasisLabel"],
    indicators: [
        "gqze_interval_grid",
        "mean_survival_quadrature",
        "min_survival_grid",
        "sub_threshold_measure_grid",
        "time_of_min_grid",
    ],
    runner: ["write_csv"],
}


def test_names_kept_out_of_the_api_stay_in_their_modules():
    for module, names in KEPT_OUT.items():
        for name in names:
            assert hasattr(module, name), name
            assert name not in module.__all__ and not hasattr(zenoion, name), name
