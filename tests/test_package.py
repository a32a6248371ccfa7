"""Packaging guards: what importing discflux pulls in, and what it exports."""

import subprocess
import sys
from pathlib import Path

import discflux

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy():
    # numpy and PyYAML are the only runtime dependencies; importing scipy
    # once took more than half the time of `import discflux`
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import discflux; "
            "assert discflux.__file__.startswith(sys.argv[1]), discflux.__file__; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_public_surface_is_this_list():
    # a public name that leaves or joins the package shows up in this diff
    assert discflux.__all__ == [
        "ConfigError",
        "DiagnosticInputError",
        "DiscfluxError",
        "DivergentRangeError",
        "DomainError",
        "EntropyResidualReport",
        "ErrorReport",
        "ExactSolution",
        "ExperimentConfig",
        "FluxRangeError",
        "FluxSegment",
        "Grid",
        "GridAlignmentError",
        "Inflow",
        "MissingDataError",
        "MonotonicityError",
        "Outflow",
        "PiecewiseConstant",
        "PiecewiseFlux",
        "ProblemSpec",
        "ProjectionError",
        "SampledTable",
        "SequencingError",
        "Snapshot",
        "SolverConfig",
        "StabilityError",
        "State",
        "Trajectory",
        "UnsupportedOracleError",
        "ValidityError",
        "build_boundary",
        "build_grid",
        "build_model",
        "build_problem",
        "build_solver_config",
        "cell_average",
        "config_digest",
        "custom_flux",
        "data_range",
        "entropy_residual",
        "exact_linear_advection",
        "exact_two_flux_riemann",
        "flux_lipschitz_in_space",
        "inflow_boundary_value",
        "initial_datum",
        "invariant_interval",
        "invert",
        "invert_near",
        "l1_error",
        "l1_error_vs_oracle",
        "linear_flux",
        "load_config",
        "max_wave_speed",
        "ooc",
        "preset",
        "quadratic_flux",
        "run",
        "save_config",
        "spatial_tv",
        "step",
        "temporal_tv",
    ]
    assert all(hasattr(discflux, name) for name in discflux.__all__)
