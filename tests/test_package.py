"""Packaging guards: what importing discflux pulls in, what it exports, and
what its values may hang on."""

import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_fresh(code, *args, env=None):
    """Stdout of ``code`` in a fresh ``-W error`` interpreter on this checkout's package.

    ``sys.argv[1]`` is the source directory; ``args`` follow it.  ``env``,
    when given, is the interpreter's whole environment.
    """
    prelude = ("import sys; sys.path.insert(0, sys.argv[1]); import discflux; "
               "assert discflux.__file__.startswith(sys.argv[1]), discflux.__file__\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", prelude + code, str(SRC),
                           *map(str, args)], capture_output=True, text=True, env=env)
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


def test_every_import_is_used():
    # each name a module imports appears in its code as a name, or in __all__
    # for the package's re-exports; ``from __future__`` binds nothing
    unused = []
    for path in sorted((SRC / "discflux").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == []


def test_no_blas_product_in_the_package():
    # a BLAS product's bits hang on the kernel a runtime-dispatched BLAS picks
    # for the CPU; a reduction of ufunc products adds in a fixed order
    blas = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}
    found = []
    for path in sorted((SRC / "discflux").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in blas:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


KERNEL_SCRIPT = """
import hashlib
import numpy as np
from discflux import PiecewiseConstant, build_grid, cell_average
from discflux.config import initial_datum, preset
from discflux.grid import _slab_average

def digest(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()

config = preset("experiment2")
grid = build_grid(config.xmin, config.xmax, 2048, config.interfaces)
print(digest(cell_average(initial_datum(config), grid)))
# a step datum with about 55 jumps inside each of its 6 cells
cuts = np.linspace(0.0, 3.0, 331)[1:-1]
bps = np.sort(cuts + 0.003 * np.sin(np.arange(cuts.size) * 1.7))
vals = 1.0 + 0.5 * np.cos(np.arange(bps.size + 1) * 0.9)
print(digest(cell_average(PiecewiseConstant(tuple(bps), tuple(vals)), build_grid(0.0, 3.0, 6))))
t0 = np.linspace(0.0, 1.0, 2001)[:-1]
print(digest(_slab_average(lambda t: 1.5 + 0.25 * np.sin(7.0 * np.asarray(t)), t0, t0 + 1 / 2000)))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS names these kernels on x86-64 only")
def test_the_means_do_not_hang_on_the_blas_kernel():
    # OPENBLAS_CORETYPE forces the kernel a DYNAMIC_ARCH OpenBLAS would pick
    # by CPU; Prescott and Nehalem run on any x86-64 CPU and multiply and add
    # without fusing, where the default kernel of a newer CPU fuses them.
    # Under a numpy not linked to a runtime-dispatched OpenBLAS the variable
    # does nothing, and this test then checks nothing.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    outs = [run_fresh(KERNEL_SCRIPT, env=env)]
    outs += [run_fresh(KERNEL_SCRIPT, env={**env, "OPENBLAS_CORETYPE": kernel})
             for kernel in ("Prescott", "Nehalem")]
    assert len(outs[0].split()) == 3
    assert outs[1] == outs[0] and outs[2] == outs[0]
