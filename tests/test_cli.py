"""Command-line interface: exit codes, file outputs, verification report."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial
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
    solver,
    step,
)
from discflux.cli import _check_monotonicity, main
from discflux.config import (build_model, build_problem, build_solver_config, data_range,
                              from_dict, load_config)
from oracles import ordering_gap_per_pair, record_spans


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
    # edge values of the repr round trip: both signed zeros, the smallest
    # subnormal, a non-terminating binary fraction, an integer above 2**53,
    # both signs of 1e300 and NaNs of three bit patterns; repeats share one
    # formatted text, which no other row may take
    nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
    values = np.array([-0.0, 0.0, 5e-324, 1.0 / 3.0, 2.0**53 + 2.0, -1e300, 1e300, 0.1,
                       0.1, -0.0, np.nan, -np.nan, nan, 5e-324, 1.0 / 3.0, 0.0])
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
        assert ",-0\n" in expected and ",0\n" in expected and "e-324\n" in expected


# sha256 of each file of `discflux run --preset experiment1 --n 2048`, recorded
# before the march differenced its Burgers block in place and folded the
# law's 1/2 into lam; meta.json re-pinned when the config digest stopped
# hashing the unused edge-flux name.  Experiment1's datum is piecewise
# constant and its march takes only +, -, *, / and sqrt, which every IEEE
# host rounds alike.
EXPERIMENT1_N2048 = {
    "meta.json": "a0b12435e69cad31321deb91150ef34d63dd966f55667d9c2ac7774cd8ff0af1",
    "snapshot_t0.3.csv": "441e04f53690fcc89d8303ae7725e1657335b50c3a74fc4e4870b4ff7e48e1e3",
    "snapshot_t0.6.csv": "3d101de4dd962f46be39c59db5c399edc3436fe10d317f5c835310969126285d",
    "snapshot_t0.9.csv": "e10015edea9c1cc3f790f0d32e2770aca12554c9069352f1fb2d224c137d8ffd",
}


def test_run_output_bytes_of_experiment1_are_pinned(tmp_path, capsys):
    assert main(["run", "--preset", "experiment1", "--n", "2048", "--out", str(tmp_path)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == EXPERIMENT1_N2048


# sha256 of each file of `discflux run --preset experiment2 --n 2048`.
# Experiment2 marches its Burgers block first and feeds the linear block
# through the interface map.  The snapshots were re-recorded when the cell
# means of a callable datum left the BLAS matrix-vector product, whose bits
# hung on the kernel OpenBLAS picks for the CPU, for a sum in node order of
# ufunc products: the new bytes are the old code's under its oldest kernel,
# OPENBLAS_CORETYPE=Prescott, which multiplies and adds without fusing.  The
# Gaussian datum still takes numpy's exp, whose last bit numpy need not
# round alike at every SIMD level: where only this pin fails, compare the
# datum first.
EXPERIMENT2_N2048 = {
    "meta.json": "6a3f156f51d08f79d9492975e5c6f8bd4f6e88e72c9f7d403fe637608282175a",
    "snapshot_t0.2.csv": "2e901ddb3599f8dfa570825013070278dcfd0122fc4dbc9c659bd4c27e95a095",
    "snapshot_t0.3.csv": "cdff1621d50a151aaf68985a30989a30fa54e3467bda68c42388bb87f3ea9665",
    "snapshot_t0.5.csv": "074d6376ece9254122f5281d2ee0433a362c98b3d2024a563497e8a60c8ecb3f",
}


def test_run_output_bytes_of_experiment2_are_pinned(tmp_path, capsys):
    assert main(["run", "--preset", "experiment2", "--n", "2048", "--out", str(tmp_path)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == EXPERIMENT2_N2048


# sha256 of the stdout of `discflux verify` and `discflux convergence` on each
# preset, recorded while the march was a plan object; experiment2's
# convergence report was re-recorded with its run pins above, the old code's
# bytes under OPENBLAS_CORETYPE=Prescott, and the run pins' notes on each
# preset's arithmetic hold here too
REPORTS = {
    ("verify", "experiment1"): "147c4511b37ff82401349f771b436cc1666c28fac5a016afd08a06ce8ac121d7",
    ("verify", "experiment2"): "085c127107381ef60bc061147795ef64dcc903ea99eb984efcc7a0cf721e2154",
    ("convergence", "experiment1"):
        "207f9dfcac7c45faadb5782c6da8875aa47c70eece324820af6b9ca24a0d1840",
    ("convergence", "experiment2"):
        "808ec67a879b3adc9d5ab755774c137eb1d8b34d8e6524011470cedbee2e4949",
}


@pytest.mark.parametrize("command, name", list(REPORTS))
def test_report_bytes_of_each_preset_are_pinned(capsys, command, name):
    assert main([command, "--preset", name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORTS[command, name]


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


def test_run_rejects_snapshot_times_that_share_a_file_name(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(snapshots=[0.05, 0.05000001, 0.05]), path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--n", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "snapshots[1]: time 0.05000001 would overwrite snapshot_t0.05.csv of snapshots[0]" in err
    assert not out.exists()


def test_a_config_naming_an_edge_flux_is_refused_as_an_unknown_key(tmp_path, capsys):
    # every edge flux is upwind f(u_left), so the schema has no key to choose one
    path = tmp_path / "exp.yaml"
    save_config(small_config(), path)
    path.write_text(path.read_text() + "numerical_flux: upwind\n")
    assert main(["run", "--config", str(path), "--n", "16", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: config.numerical_flux: unknown key\n"


@pytest.mark.parametrize("lam", [1e-300, 1e-320, 1e-323])
def test_a_step_count_that_cannot_be_formed_exits_1_with_one_line(lam, tmp_path, capsys):
    # t_end / dt beyond any index (1e-300), infinite (1e-320), or dt
    # rounding to 0 (1e-323): refused before any per-level list is built
    config = small_config(**{"lambda": lam})
    with pytest.raises(ValueError, match=r"^dt = \S+ gives t_end / dt = \S+ steps"):
        run(build_problem(config), build_grid(-1.0, 1.0, 16, (0.0,)), build_model(config),
            build_solver_config(config))
    path = tmp_path / "exp.yaml"
    save_config(config, path)
    for command in (["verify"], ["run", "--n", "16", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dt = ") and err.count("\n") == 1


def test_a_config_written_with_exponent_floats_verifies_as_its_preset(tmp_path, capsys):
    # YAML 1.1 reads a float with an exponent but no dot (5e-1) as a string;
    # a config file reads it as the number
    path = tmp_path / "exp.yaml"
    save_config(preset("experiment1"), path)
    text = path.read_text()
    for old, new in (("lambda: 0.5\n", "lambda: 5e-1\n"), ("t_end: 0.9\n", "t_end: 9e-1\n"),
                     ("values:\n  - 0.5\n  - 2.0\n", "values:\n  - 5e-1\n  - 2e0\n")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    path.write_text(text)
    assert main(["verify", "--preset", "experiment1"]) == 0
    want = capsys.readouterr().out
    assert main(["verify", "--config", str(path)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("line, message", [
    ("reference_n: 2e3", "reference_n: expected an integer, got 2000.0"),
    ("lambda: '5e-1'", "lambda: expected a number, got '5e-1'"),
], ids=["exponent-integer", "quoted-exponent"])
def test_an_exponent_float_is_no_integer_and_a_quoted_one_no_number(line, message, tmp_path,
                                                                    capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(), path)
    key = line.split(":")[0]
    text = path.read_text()
    lines = [line if row.startswith(f"{key}:") else row for row in text.splitlines()]
    assert lines != text.splitlines()
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_convergence_takes_no_rate_from_the_reference_row(tmp_path, capsys):
    # the reference's own row reads 0 with no rate; the other rows are those
    # of the study without it, bit for bit
    tables = []
    for resolutions in ([16, 32, 64], [16, 32]):
        path = tmp_path / f"exp{len(resolutions)}.yaml"
        save_config(small_config(resolutions=resolutions, reference_n=64), path)
        assert main(["convergence", "--config", str(path)]) == 0
        tables.append(capsys.readouterr().out.strip().splitlines())
    assert tables[0] == tables[1] + ["64,0,"]
    assert tables[1][2].startswith("32,") and not tables[1][2].endswith(",")


def test_convergence_of_an_exact_steady_study_prints_no_rate(tmp_path, capsys):
    # one linear law keeps a constant datum exactly, so every error is zero:
    # the rows print no rate, and the study is not an error
    path = tmp_path / "steady.yaml"
    save_config(small_config(
        interfaces=[], fluxes=[{"kind": "linear"}],
        initial={"kind": "piecewise_constant", "breakpoints": [], "values": [0.7]},
        resolutions=[16, 32], reference_n=64), path)
    assert main(["convergence", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["n,l1_error,ooc", "16,0,", "32,0,"]


def test_convergence_on_a_ladder_that_does_not_double_prints_no_rates(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    save_config(small_config(resolutions=[16, 24], reference_n=48), path)
    assert main(["convergence", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,l1_error,ooc"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["16", "24"]
    assert all(ln.endswith(",") and float(ln.split(",")[1]) > 0.0 for ln in lines[1:])


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
    }


def test_the_tabulated_inflow_example_verifies_and_runs(tmp_path, monkeypatch, capsys):
    # the CI example: two interfaces and a tabulated inflow, run from the
    # repository root as CI runs it
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert main(["verify", "--config", "tests/data/inflow.yaml"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split()[1] for ln in lines] == ["PASS"] * 6
    assert main(["run", "--config", "tests/data/inflow.yaml", "--n", "256",
                 "--out", str(tmp_path / "run")]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "meta.json", "snapshot_t0.2.csv", "snapshot_t0.4.csv"]


def test_the_inflow_example_reads_its_table_next_to_it(monkeypatch, capsys):
    # a relative table path is read from the config's directory, whatever
    # the working directory
    data = Path(__file__).resolve().parent / "data"
    monkeypatch.chdir(data)
    assert main(["verify", "--config", "inflow.yaml"]) == 0
    here = capsys.readouterr().out
    monkeypatch.chdir(data.parents[1])
    assert main(["verify", "--config", str(data / "inflow.yaml")]) == 0
    assert capsys.readouterr().out == here


# Four wrong marches, patched into the solver, and what verify says of each on
# each config: exit 3 and the checks that fail, exit 2 (the map leaves the
# right law's image on experiment2), or exit 0 where the defect changes
# nothing (experiment2's right law is u, so its flux is its value).
_BIND, _BLOCKS, _INVERSE = solver._bind, solver._blocks, solver._inverse


def _slow_lam(u, new, lam, *args):
    return _BIND(u, new, 0.95 * lam, *args)


def _scaled_difference(grid, model, *args):
    # the nonlinear blocks' updates scale their difference, on the law's
    # chain and the folded one, by 0.95 lam
    return [b._replace(update=partial(_slow_update, b.update)) if seg.kind != "linear" else b
            for b, seg in zip(_BLOCKS(grid, model, *args), model.segments)]


def _slow_update(update, u, dst, lam):
    return update(u, dst, 0.95 * lam)


def _short_map(seg, bracket, image=None):
    inverse = _INVERSE(seg, bracket, image)
    return lambda w: inverse(0.98 * w)


def _flux_as_u(seg, bracket, image=None):
    return lambda w: w


_DEFECTS = {
    "lam": (solver, "_bind", _slow_lam),
    "difference": (solver, "_blocks", _scaled_difference),
    "map98": (solver, "_inverse", _short_map),
    "flux_as_u": (solver, "_inverse", _flux_as_u),
}
_SOURCES = {
    "experiment1": ["--preset", "experiment1"],
    "experiment2": ["--preset", "experiment2"],
    "inflow": ["--config", str(Path(__file__).resolve().parent / "data" / "inflow.yaml")],
}


@pytest.mark.parametrize("defect, source, code, failing", [
    ("lam", "experiment1", 3, {"entropy_residual"}),
    ("lam", "experiment2", 3, {"entropy_residual"}),
    ("lam", "inflow", 3, {"entropy_residual"}),
    ("difference", "experiment1", 3, {"entropy_residual"}),
    ("difference", "experiment2", 3, {"entropy_residual"}),
    ("difference", "inflow", 3, {"entropy_residual"}),
    ("map98", "experiment1", 3, {"steady_state"}),
    ("map98", "experiment2", 2, set()),
    ("map98", "inflow", 3, {"steady_state"}),
    ("flux_as_u", "experiment1", 3, {"steady_state"}),
    ("flux_as_u", "experiment2", 0, set()),
    ("flux_as_u", "inflow", 3, {"steady_state", "temporal_tv"}),
])
def test_verify_fails_a_wrong_march(monkeypatch, capsys, defect, source, code, failing):
    assert main(["verify", *_SOURCES[source]]) == 0
    sound = capsys.readouterr().out
    monkeypatch.setattr(*_DEFECTS[defect])
    assert main(["verify", *_SOURCES[source]]) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert {ln.split()[0] for ln in lines if ln.split()[1] == "FAIL"} == failing
    if code == 2:
        assert "outside the flux image" in captured.err
    if code == 0:
        assert captured.out == sound


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
    data = data_range(config)
    return data, model, build_solver_config(config), grid, invariant_interval(model, data)


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


def test_the_order_check_marches_run_s_boundary_column(monkeypatch):
    # one slab rule: the order check's boundary column is, level by level,
    # the boundary cell that run writes.  At lambda = 0.2 on 16 cells dt =
    # 0.025 is not dyadic, so a running sum of steps drifts off run's pinned
    # level times: it starts 7 of the 20 slabs elsewhere
    config = replace(load_config(Path(__file__).parent / "data" / "inflow.yaml"), lam=0.2)
    data, model, solver_config, grid, u_range = order_case(config)
    levels = run(build_problem(config), grid, model, solver_config, retain_levels=True).levels
    columns = []
    march = cli._march

    def seen(grid, model, bracket, u, new, lams, column, *args):
        columns.append(column)
        return march(grid, model, bracket, u, new, lams, column, *args)

    monkeypatch.setattr(cli, "_march", seen)
    cli._ordering_gap(data, model, solver_config, grid, u_range)
    assert len(columns) == 1 and len(levels) == 21
    assert [v.hex() for v in columns[0][:20].tolist()] == [
        float(level.u[0]).hex() for level in levels[1:]]


def test_order_check_marches_its_pairs_in_100_steps(monkeypatch):
    # one stacked march takes the 20 pairs' 40 states a step at a time, block
    # by block: a whole first step, then the other 99 in windows of spans of
    # solver._NARROW_EVERY steps from step 2 on, as run's full steps go
    levels = []
    march = cli._march

    def counted(*args):
        for level in march(*args):
            levels.append((level[1].start, level[0]))
            yield level

    monkeypatch.setattr(cli, "_march", counted)
    log = record_spans(monkeypatch)
    assert _check_monotonicity(*order_case(preset("experiment1")))[1] == "PASS"
    assert levels == [(a, k) for a in (0, 8) for k in range(1, 101)]
    windows = -(-99 // solver._NARROW_EVERY)
    assert {a: len(spans) for a, spans in log.items()} == {0: windows, 8: windows}


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


def test_verify_skips_the_entropy_check_when_no_constant_chains(tmp_path, capsys):
    # the invariant range [0.034, 1.68] spans 1.65 while the constants c whose
    # flux 16c - 16 lies in [0, 1], inside both the convex law's image (above
    # 0) and the concave law's (below 1), span 1/16: none of the 17 is one
    config = small_config(
        interfaces=[-0.6, -0.2, 0.2, 0.6],
        fluxes=[{"kind": "linear", "a": 16.0, "b": -16.0}, {"kind": "quadratic"},
                {"kind": "quadratic", "a": -0.5, "b": 1.0}, {"kind": "linear", "a": 16.0},
                {"kind": "linear", "a": 10.0}],
        initial={"kind": "piecewise_constant", "breakpoints": [], "values": [1.05]},
        resolutions=[40, 80], reference_n=160, **{"lambda": 0.05})
    path = tmp_path / "exp.yaml"
    save_config(config, path)
    assert main(["verify", "--config", str(path)]) == 0
    lines = {ln.split()[0]: ln for ln in capsys.readouterr().out.splitlines()}
    assert lines["entropy_residual"].split(None, 2)[1:] == [
        "SKIP", "no constant's adapted chain stays inside every law's image"]


@pytest.mark.parametrize("interfaces, fluxes, n", [
    ([0.0], [{"kind": "linear"}, {"kind": "quadratic"}], 2),
    ([], [{"kind": "linear"}], 1),
], ids=["a-cell-per-law", "one-cell"])
def test_verify_skips_the_entropy_check_on_a_grid_without_an_in_law_cell(capsys, interfaces,
                                                                         fluxes, n):
    # the entropy inequality is checked at cells whose left neighbour shares
    # their law; a grid of one cell per law has none, so the check does not
    # apply, and the other five still run
    config = small_config(interfaces=interfaces, fluxes=fluxes,
                          initial={"kind": "piecewise_constant", "breakpoints": [-0.5],
                                   "values": [0.5, 2.0]},
                          t_end=0.9, resolutions=[n], reference_n=2 * n, **{"lambda": 0.5})
    assert cli.cmd_verify(config) == 0
    lines = {ln.split()[0]: ln.split(None, 2)[1:] for ln in capsys.readouterr().out.splitlines()}
    assert lines.pop("entropy_residual") == [
        "SKIP", f"no interior cell has an in-law left neighbour at n={n}"]
    assert lines.pop("steady_state")[0] == ("PASS" if interfaces else "SKIP")
    assert {status for status, _ in lines.values()} == {"PASS"}


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


@pytest.mark.parametrize("check", ["tvd", "temporal_tv"])
def test_verify_fails_a_nan_in_the_level_checks(monkeypatch, capsys, check):
    # a NaN level cell (tvd) or temporal increment (temporal_tv) in the run
    # the level checks read must fail them, not give way to a clean value
    real_run = cli.run

    def poisoned_run(*args, **kwargs):
        trajectory = real_run(*args, **kwargs)
        if kwargs.get("record_increments"):
            cells = trajectory.levels[3].u if check == "tvd" else trajectory.temporal_increments
            cells[5] = np.nan
        return trajectory

    monkeypatch.setattr(cli, "run", poisoned_run)
    assert main(["verify", "--preset", "experiment1"]) == 3
    lines = {ln.split()[0]: ln for ln in capsys.readouterr().out.splitlines()}
    # a NaN level makes the levels' range NaN, and with it the temporal-TV
    # check's ghost quotients
    for name in {check, "temporal_tv"}:
        assert lines[name].split()[1:2] == ["FAIL"]
        assert " nan " in lines[name]


_E = r"-?\d\.\d{3}e[+-]\d{2}"
_G = r"-?\d+(\.\d+)?(e[+-]\d+)?"
_VERIFY_LINES = {
    "cfl": rf"PASS  lambda\*max_speed = {_G} on range \[{_G}, {_G}\]",
    "steady_state": rf"PASS  max drift {_E} over full run \(limit 1e-11\)",
    "monotonicity": rf"PASS  max ordering violation {_E} over 20 pairs x 100 steps \(limit 1e-13\)",
    "tvd": rf"PASS  max per-subdomain TV excess {_E} \(limit 1e-12\)",
    "entropy_residual": rf"PASS  max residual {_E} at cell \d+, step \d+, c={_G} "
                        rf"over 17 constants at n=64 \(limit 1e-12\)",
    "temporal_tv": rf"PASS  max recursion slack {_E} \(limit 1e-12\); "
                   rf"ghost Lipschitz quotients: {_G}(, {_G})*",
}
_NO_STEP = "SKIP  the run takes no step, so it has one time level"


@pytest.mark.parametrize("source, code, patterns", [
    (["--preset", "experiment1"], 0, _VERIFY_LINES),
    (["--preset", "experiment2"], 0, _VERIFY_LINES),
    (["--config", "tests/data/inflow.yaml"], 0, _VERIFY_LINES),
    ({"lambda": 2.0}, 3, {
        "cfl": rf"FAIL  lambda\*max_speed = {_G} > 1 for flux law \d+ on \[{_G}, {_G}\]; "
               rf"reduce lam below {_G}",
        **dict.fromkeys(list(_VERIFY_LINES)[1:], "SKIP  cfl violated"),
    }),
    ({"t_end": 0.0}, 0, {**_VERIFY_LINES, "tvd": _NO_STEP, "entropy_residual": _NO_STEP,
                    "temporal_tv": _NO_STEP}),
], ids=["experiment1", "experiment2", "inflow", "cfl-violated", "t-end-0"])
def test_verify_lines_keep_their_names_wording_and_limits(
        tmp_path, monkeypatch, capsys, source, code, patterns):
    # one line per check in this order, each giving its worst value against
    # its limit; a source given as overrides is small_config with them
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    if isinstance(source, dict):
        save_config(small_config(**source), tmp_path / "exp.yaml")
        source = ["--config", str(tmp_path / "exp.yaml")]
    assert main(["verify", *source]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(patterns)
    for line, (name, pattern) in zip(lines, patterns.items()):
        assert re.fullmatch(f"{name:<20} {pattern}", line), line


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
    }
    assert all(ln.endswith("the run takes no step, so it has one time level")
               for ln in lines[3:])


@pytest.mark.parametrize("rows, kind, cfl", [
    ("t,u\n0.0,1.0\n0.9,1.0\n5.0,40.0\n", "trace",
     "lambda*max_speed = 0.707107 on range [0.5, 1.41421]"),
    ("x,u\n-1.0,0.5\n1.0,0.5\n3.0,-5.0\n", "datum", "lambda*max_speed = 0.5 on range [0.5, 1]"),
], ids=["trace-past-t_end", "datum-past-xmax"])
def test_verify_counts_only_the_table_rows_its_study_reads(tmp_path, capsys, rows, kind, cfl):
    # the study reads a trace on [0, 0.9] and a datum on [-1, 1]: the trace's
    # 40 at t = 5 would give lambda*max_speed = 20, and the datum's -5 at x = 3
    # a Burgers law that decreases on the data
    table = tmp_path / "table.csv"
    table.write_text(rows)
    spec = {"kind": "table", "path": str(table)}
    if kind == "trace":
        overrides = {"initial": {"kind": "piecewise_constant", "breakpoints": [-0.5],
                                 "values": [0.5, 1.0]},
                     "boundary": {"left": {"kind": "inflow", "trace": spec}}}
    else:
        overrides = {"initial": spec}
    path = tmp_path / "exp.yaml"
    save_config(small_config(**overrides, **{"lambda": 0.5}, t_end=0.9), path)
    assert main(["verify", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(None, 2) == ["cfl", "PASS", cfl]
    assert all(ln.split()[1] == "PASS" for ln in lines)


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
                                    "entropy_residual", "temporal_tv")]


def test_a_scalar_list_field_exits_one_without_a_traceback(tmp_path):
    path = tmp_path / "scalar.yaml"
    path.write_text(
        "domain: {xmin: -1.0, xmax: 1.0}\n"
        "interfaces: [0.0]\n"
        "fluxes: [{kind: linear}, {kind: quadratic}]\n"
        "initial: {kind: piecewise_constant, breakpoints: 0.5, values: [0.5, 2.0]}\n"
        "lambda: 0.4\n"
        "t_end: 0.1\n"
        "resolutions: [16]\n"
        "reference_n: 32\n"
    )
    proc = _python(["-m", "discflux.cli", "verify", "--config", str(path)], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: initial.breakpoints: expected a list\n"
