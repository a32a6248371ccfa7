"""Packaging guards: what importing discflux pulls in, and what it exports."""

import json
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


def run_fresh(code, *args):
    """Stdout of ``code`` in a fresh ``-W error`` interpreter on this checkout's package.

    ``sys.argv[1]`` is the source directory; ``args`` follow it.
    """
    prelude = ("import sys; sys.path.insert(0, sys.argv[1]); import discflux; "
               "assert discflux.__file__.startswith(sys.argv[1]), discflux.__file__\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", prelude + code, str(SRC),
                           *map(str, args)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_preset_run_and_verify_leave_yaml_polynomial_and_random_unloaded(tmp_path):
    # each stays resident once loaded, so each would add to every run's
    # footprint; only a config file needs PyYAML
    out = run_fresh(
        "from discflux.cli import main\n"
        "assert main(['verify', '--preset', 'experiment1']) == 0\n"
        "assert main(['run', '--preset', 'experiment2', '--n', '64', '--out', sys.argv[2]]) == 0\n"
        "print(sorted({'yaml', 'numpy.polynomial', 'numpy.random'} & set(sys.modules)))",
        tmp_path)
    assert out.splitlines()[-1] == "[]"


def test_verify_draws_its_pairs_from_a_counter_hash():
    # splitmix64's finalizer on the counters 1, 2, ..., written here with
    # Python integers, and its top 53 bits scaled into [0, 1)
    def finalize(z):
        mask = (1 << 64) - 1
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return (z ^ (z >> 31)) >> 11

    out = run_fresh(
        "from discflux.cli import _unit_draws\n"
        "draws = _unit_draws((4, 2, 3))\n"
        "assert draws.shape == (4, 2, 3) and draws.dtype == float\n"
        "assert 'numpy.random' not in sys.modules\n"
        "print(draws.ravel().tolist())")
    draws = json.loads(out)
    assert draws == [finalize(z) * 2.0 ** -53 for z in range(1, 25)]
    assert all(0.0 <= d < 1.0 for d in draws)


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
