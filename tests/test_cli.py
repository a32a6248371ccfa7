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
    MonotonicityError,
    PiecewiseFlux,
    StabilityError,
    State,
    Trajectory,
    analysis,
    build_grid,
    cli,
    config_digest,
    custom_flux,
    invariant_interval,
    preset,
    run,
    save_config,
    step,
)
from discflux.cli import _check_monotonicity, main
from discflux.config import build_model, build_problem, build_solver_config, data_range, from_dict
from oracles import ordering_gap_per_pair


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


def test_run_transmits_past_the_padded_data_range_towards_a_vertex(tmp_path, capsys):
    # u^2/2 | u^2 with data 2 | 0.5: the right law transmits sqrt(0.125),
    # below the data and its padded interval but right of the vertex at 0
    path = tmp_path / "exp.yaml"
    save_config(small_config(
        fluxes=[{"kind": "quadratic", "a": 1.0}, {"kind": "quadratic", "a": 2.0}],
        initial={"kind": "piecewise_constant", "breakpoints": [-0.5], "values": [2.0, 0.5]},
        snapshots=[0.1], **{"lambda": 0.2}), path)
    assert main(["run", "--config", str(path), "--n", "64",
                 "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "snapshot_t0.1.csv").read_text().splitlines()[1:]
    u = np.array([float(ln.split(",")[1]) for ln in lines])
    assert np.sqrt(0.125) - 1e-15 <= u.min() and u.max() <= 2.0


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


def order_case(config):
    """The order check's arguments, as ``cmd_verify`` passes them."""
    model = build_model(config)
    grid = build_grid(config.xmin, config.xmax, min(config.resolutions), config.interfaces)
    return (config, model, build_solver_config(config), grid,
            invariant_interval(model, data_range(config)))


def test_order_check_reports_a_cfl_violation_instead_of_raising():
    # the check runs on one bracketed plan, with no per-step cfl guard; at
    # lam * speed = 1.4 the update is no longer monotone and it must say so
    config = small_config(interfaces=[], fluxes=[{"kind": "linear"}], **{"lambda": 1.4})
    name, status, detail = _check_monotonicity(*order_case(config))
    assert (name, status) == ("monotonicity", "FAIL")
    assert float(detail.split()[3]) > 1.0


@pytest.mark.parametrize("config", [
    preset("experiment1"),
    preset("experiment2"),
    small_config(interfaces=[], fluxes=[{"kind": "linear"}], **{"lambda": 1.4}),
    small_config(interfaces=[], fluxes=[{"kind": "linear"}], **{"lambda": 1000.0}),
    small_config(
        interfaces=[-0.5, 0.0, 0.5],
        fluxes=[{"kind": "quadratic", "a": 1.5}, {"kind": "linear", "a": 0.5},
                {"kind": "quadratic", "a": -0.2, "b": 2.0}, {"kind": "linear"}],
        boundary={"left": {"kind": "inflow", "trace": {"kind": "constant", "value": 1.5}}},
        **{"lambda": 0.1}),
], ids=["experiment1", "experiment2", "cfl-1.4", "cfl-1000", "three-interfaces-inflow"])
def test_stacked_order_check_equals_the_per_pair_march(config):
    # the 40 states marched as one (2, 20, n) stack give the gap of each
    # pair member marched on its own, bit for bit; at lam = 1000 the march
    # overflows and the gap is NaN both ways
    args = order_case(config)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = cli._ordering_gap(*args), ordering_gap_per_pair(*args)
    assert got.hex() == want.hex()


def test_order_check_reports_a_nan_gap_as_a_failure():
    # the march blows up at lam * speed = 1000: inf - inf gaps are NaN, and
    # a NaN must not be dropped in favour of an earlier finite or inf gap
    config = small_config(interfaces=[], fluxes=[{"kind": "linear"}], **{"lambda": 1000.0})
    with np.errstate(over="ignore", invalid="ignore"):
        name, status, detail = _check_monotonicity(*order_case(config))
    assert (name, status) == ("monotonicity", "FAIL")
    assert detail.split()[3] == "nan"


def test_order_check_marches_its_pairs_in_100_steps(monkeypatch):
    # one stacked plan takes the 20 pairs' 40 states a whole step at a time
    calls = []
    advance = cli._March.advance
    monkeypatch.setattr(cli._March, "advance",
                        lambda self, *args: calls.append(args) or advance(self, *args))
    assert _check_monotonicity(*order_case(preset("experiment1")))[1] == "PASS"
    assert len(calls) == 100


def test_verify_does_not_error_where_constants_chain_past_a_law(tmp_path, capsys):
    # the invariant range [0.51, 6] holds constants whose adapted chain
    # reaches flux 27 at the concave law, whose peak is 10: run accepts the
    # model, the steady datum of such a constant cannot run, and 7 of the 17
    # entropy constants have no entropy pair
    config = small_config(
        interfaces=[-0.5, 0.0, 0.5],
        fluxes=[{"kind": "quadratic", "a": 1.5}, {"kind": "linear", "a": 0.5},
                {"kind": "quadratic", "a": -0.2, "b": 2.0}, {"kind": "linear"}],
        initial={"kind": "piecewise_constant", "breakpoints": [], "values": [2.0]},
        t_end=0.5, resolutions=[64, 128], reference_n=256, **{"lambda": 0.1})
    path = tmp_path / "exp.yaml"
    save_config(config, path)
    assert main(["run", "--config", str(path), "--n", "64", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(path)]) != 2
    lines = {ln.split()[0]: ln for ln in capsys.readouterr().out.splitlines()}
    assert lines["steady_state"].split()[1] == "SKIP"
    assert "could not bracket w=27" in lines["steady_state"]
    assert "over 10 of 17 constants" in lines["entropy_residual"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block_bytes", [None, 1])
def test_verify_fails_a_nan_entropy_residual(monkeypatch, block_bytes):
    # u^1.5 is NaN below 0, so one negative value makes the residual NaN,
    # which must not pass as a residual below the limit
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_RESIDUAL_BLOCK_BYTES", block_bytes)
    law = custom_flux(lambda u: u * np.sqrt(u), lambda u: 1.5 * np.sqrt(u), interval=(0.5, 2.5))
    model = PiecewiseFlux((), (law,))
    rows = [[2.0, 2.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.0],
            [2.0, 2.0, 2.0, 2.0, 1.5, -1.0, 1.0, 1.0],
            [2.0, 2.0, 2.0, 2.0, 1.6, 1.4, 1.2, 1.0]]
    levels = [State(np.array(r), 0.01 * k, k) for k, r in enumerate(rows)]
    # the check's run is replaced by these levels; no monotone run makes them
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: Trajectory(
        final=levels[-1], snapshots=[], levels=levels))
    config = small_config(interfaces=[], fluxes=[{"kind": "quadratic"}],
                          resolutions=[8], reference_n=8)
    name, status, detail = cli._check_entropy(
        config, build_problem(config), model, build_solver_config(config), (0.5, 2.5))
    assert (name, status) == ("entropy_residual", "FAIL")
    assert detail.startswith("max residual nan at cell 5, step 1, c=0.5 ")


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


def test_a_law_that_stops_increasing_exits_one(tmp_path, monkeypatch, capsys):
    def stop(*args):
        raise MonotonicityError("flux law 0 stops increasing")

    monkeypatch.setattr("discflux.cli.cmd_run", stop)
    assert main(["run", "--preset", "experiment1", "--n", "16",
                 "--out", str(tmp_path / "out")]) == 1
    assert "stops increasing" in capsys.readouterr().err


def test_unstable_march_exits_two(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(**{"lambda": 2.0}), path)
    assert main(["run", "--config", str(path), "--n", "16",
                 "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_skips_the_step_checks_of_a_run_without_steps(tmp_path, capsys):
    # t_end 0 leaves the initial level alone: the checks that compare levels
    # have no step to check, the others still run
    path = tmp_path / "exp.yaml"
    save_config(small_config(t_end=0.0), path)
    assert main(["verify", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert {ln.split()[0]: ln.split()[1] for ln in lines} == {
        "cfl": "PASS",
        "steady_state": "PASS",
        "monotonicity": "PASS",
        "tvd": "SKIP",
        "entropy_residual": "SKIP",
        "temporal_tv": "SKIP",
        "scheme_equivalence": "SKIP",
    }
    assert all(ln.endswith("the run takes no step, so it has one time level")
               for ln in lines[3:])


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
    return _python(["-c", code, *args], cwd)


def _python(args, cwd):
    """Run ``python args`` with this process's ``discflux`` first on the path."""
    import_root = str(Path(discflux.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [import_root, env.get("PYTHONPATH")] if p)
    return subprocess.run([sys.executable, *args], cwd=cwd,
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


def test_module_entry_point_runs_the_command(tmp_path):
    # python -m discflux.cli must run the command, not import the module and
    # exit 0 without output
    proc = _python(["-m", "discflux.cli", "verify", "--preset", "experiment1"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [ln.split()[:2] for ln in lines] == [
        [name, "PASS"] for name in ("cfl", "steady_state", "monotonicity", "tvd",
                                    "entropy_residual", "temporal_tv", "scheme_equivalence")]
