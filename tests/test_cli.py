"""Command-line interface: exit codes, file outputs, verification report."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discflux
from discflux import (
    StabilityError,
    State,
    build_grid,
    config_digest,
    invariant_interval,
    preset,
    run,
    save_config,
    step,
)
from discflux.cli import _check_monotonicity, main
from discflux.config import build_model, build_problem, build_solver_config, data_range, from_dict


def small_config(**overrides):
    raw = {
        "domain": {"xmin": -1.0, "xmax": 1.0},
        "interfaces": [0.0],
        "fluxes": [{"kind": "linear"}, {"kind": "quadratic"}],
        "initial": {
            "kind": "piecewise_constant",
            "breakpoints": [-0.5],
            "values": [1.0, 2.0],
        },
        "lambda": 0.4,
        "t_end": 0.1,
        "resolutions": [16, 32],
        "reference_n": 64,
    }
    raw.update(overrides)
    return from_dict(raw)


# {{{ run


def test_run_writes_snapshots_and_meta(tmp_path, capsys):
    out_a = tmp_path / "a"
    assert main(["run", "--preset", "experiment1", "--n", "64",
                 "--out", str(out_a)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["meta.json", "snapshot_t0.3.csv",
                     "snapshot_t0.6.csv", "snapshot_t0.9.csv"]
    lines = (out_a / "snapshot_t0.3.csv").read_text().splitlines()
    assert lines[0] == "x_center,u"
    assert len(lines) == 65

    meta = json.loads((out_a / "meta.json").read_text())
    assert meta["n"] == 64
    assert meta["config_digest"] == config_digest(preset("experiment1"))
    assert meta["dt"] == pytest.approx(0.5 * meta["dx"])
    assert meta["t_end"] == 0.9
    for snap in meta["snapshots"]:
        assert abs(snap["time"] - snap["requested"]) < meta["dt"]

    # a second run must reproduce every output byte for byte
    out_b = tmp_path / "b"
    assert main(["run", "--preset", "experiment1", "--n", "64",
                 "--out", str(out_b)]) == 0
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_csv_bytes_match_per_row_formatting(tmp_path, monkeypatch, capsys):
    # edge values of the repr round trip: signed zero, the smallest subnormal,
    # a non-terminating binary fraction, an integer above 2**53
    values = np.array([-0.0, 5e-324, 1.0 / 3.0, 2.0**53 + 2.0, -1e300, 0.1, 2.5, 7.0])
    grid = build_grid(-1.0, 1.0, values.size, (0.0,))
    # each snapshot holds the values in another order, so a row that took
    # another snapshot's value or another row's center would show
    levels = {0.05: values, 0.08: values[::-1].copy(), 0.1: np.roll(values, 3)}

    def fake_run(problem, grid, model, config, snapshot_times=()):
        snaps = [discflux.Snapshot(t, State(u.copy(), t, k))
                 for k, (t, u) in enumerate(levels.items(), start=1)]
        return discflux.Trajectory(snaps[-1].state, snaps)

    monkeypatch.setattr("discflux.cli.run", fake_run)
    path = tmp_path / "exp.yaml"
    save_config(small_config(snapshots=list(levels)), path)
    assert main(["run", "--config", str(path), "--n", str(values.size),
                 "--out", str(tmp_path / "out")]) == 0
    for t, u in levels.items():
        expected = "x_center,u\n" + "".join(f"{x:.17g},{v:.17g}\n"
                                            for x, v in zip(grid.centers, u))
        assert (tmp_path / "out" / f"snapshot_t{t:g}.csv").read_bytes() == expected.encode()
        assert ",-0\n" in expected and "e-324\n" in expected


def test_run_accepts_config_file(tmp_path):
    path = tmp_path / "exp.yaml"
    save_config(small_config(snapshots=[0.1]), path)
    assert main(["run", "--config", str(path), "--n", "16",
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "snapshot_t0.1.csv").exists()


# }}}


# {{{ convergence


def test_convergence_prints_and_writes_table(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(), path)
    csv_path = tmp_path / "table.csv"
    assert main(["convergence", "--config", str(path),
                 "--out", str(csv_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,l1_error,ooc"
    assert lines[1].startswith("16,") and lines[1].endswith(",")
    assert lines[2].startswith("32,") and not lines[2].endswith(",")
    table = "".join(ln + "\n" for ln in lines if not ln.startswith("wrote"))
    assert csv_path.read_text() == table


def test_convergence_against_itself_is_exactly_zero(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(resolutions=[32], reference_n=32), path)
    assert main(["convergence", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "32,0,"


# }}}


# {{{ verify


@pytest.mark.parametrize("name", ["experiment1", "experiment2"])
def test_verify_passes_on_presets(name, capsys):
    assert main(["verify", "--preset", name]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    checks = {ln.split()[0]: ln.split()[1] for ln in lines}
    assert checks == {
        "cfl": "PASS",
        "steady_state": "PASS",
        "monotonicity": "PASS",
        "tvd": "PASS",
        "entropy_residual": "PASS",
        "temporal_tv": "PASS",
        "scheme_equivalence": "PASS",
    }


def test_verify_reports_cfl_violation(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(**{"lambda": 2.0}), path)
    assert main(["verify", "--config", str(path)]) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[:2] == ["cfl", "FAIL"]
    assert all(ln.split()[1] == "SKIP" for ln in lines[1:])


def test_verify_skips_interface_checks_without_interfaces(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(interfaces=[], fluxes=[{"kind": "quadratic"}]), path)
    assert main(["verify", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    steady = next(ln for ln in lines if ln.startswith("steady_state"))
    assert steady.split()[1] == "SKIP"
    assert "no interfaces" in steady


@pytest.mark.parametrize("lam, ok", [(0.5, True), (0.5 * (1.0 + 1e-9), False)])
def test_step_run_and_verify_share_one_cfl_rule(tmp_path, capsys, lam, ok):
    # transport | Burgers at u = 2 has max speed 2, so lam = 0.5 is the limit
    config = small_config(initial={"kind": "piecewise_constant", "breakpoints": [],
                                   "values": [2.0]}, **{"lambda": lam})
    model, problem = build_model(config), build_problem(config)
    solver_config = build_solver_config(config)
    grid = build_grid(config.xmin, config.xmax, 16, config.interfaces)
    state = State(np.full(16, 2.0), 0.0, 0)
    path = tmp_path / "exp.yaml"
    save_config(config, path)
    main(["verify", "--config", str(path)])
    cfl_line = capsys.readouterr().out.splitlines()[0].split()
    if ok:
        run(problem, grid, model, solver_config)
        step(state, grid, model, solver_config)
        assert cfl_line[:2] == ["cfl", "PASS"]
    else:
        with pytest.raises(StabilityError, match="reduce lam below 0.5"):
            run(problem, grid, model, solver_config)
        with pytest.raises(StabilityError, match="reduce lam below 0.5"):
            step(state, grid, model, solver_config)
        assert cfl_line[:2] == ["cfl", "FAIL"]


def test_order_check_reports_a_cfl_violation_instead_of_raising():
    # the check runs on one bracketed plan, with no per-step cfl guard; at
    # lam * speed = 1.4 the update is no longer monotone and it must say so
    config = small_config(interfaces=[], fluxes=[{"kind": "linear"}], **{"lambda": 1.4})
    model = build_model(config)
    grid = build_grid(config.xmin, config.xmax, min(config.resolutions), ())
    u_range = invariant_interval(model, data_range(config))
    name, status, detail = _check_monotonicity(
        config, model, build_solver_config(config), grid, u_range)
    assert (name, status) == ("monotonicity", "FAIL")
    assert float(detail.split()[3]) > 1.0


# }}}


# {{{ failure modes


@pytest.mark.parametrize("argv", [
    [],
    ["run"],
    ["run", "--preset", "experiment1"],  # missing --n
    ["run", "--preset", "experiment1", "--config", "x.yaml", "--n", "16"],
    ["explode", "--preset", "experiment1"],
])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


def test_missing_config_is_reported_not_raised(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "no.yaml"),
                 "--n", "16", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unstable_march_exits_two(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(**{"lambda": 2.0}), path)
    assert main(["run", "--config", str(path), "--n", "16",
                 "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


# }}}


def _console_script(args, cwd):
    """Run the declared ``discflux`` console script as its own process.

    The child does what an installer's launcher does: import the function
    named in ``[project.scripts]`` and exit with its return value. The
    directory this test process imports ``discflux`` from goes first on the
    child's ``PYTHONPATH``, so the child runs the code under test even where
    no launcher is installed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["discflux"]
    module, func = spec.split(":")
    code = (f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'discflux'; sys.exit({func}())")
    import_root = str(Path(discflux.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [import_root, env.get("PYTHONPATH")] if p)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = _console_script(["run", "--preset", "experiment1", "--n", "16",
                            "--out", str(out)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (out / "meta.json").exists(), proc.stderr

    # a usage error leaves through argparse, a bad config file through
    # main's return value; both must reach the process exit status
    proc = _console_script(["run"], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr, proc.stderr

    proc = _console_script(["run", "--config", str(tmp_path / "no.yaml"),
                            "--n", "16", "--out", str(out)], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr, proc.stderr
