"""Configuration parsing, validation messages, serialization, builders."""

import dataclasses

import numpy as np
import pytest

from discflux import (
    Inflow,
    Outflow,
    PiecewiseConstant,
    SolverConfig,
    build_boundary,
    build_model,
    build_solver_config,
    config_digest,
    data_range,
    initial_datum,
    load_config,
    preset,
    save_config,
)
from discflux.config import from_dict, to_dict
from discflux.errors import ConfigError
from discflux.grid import SampledTable


def base_dict():
    return {
        "domain": {"xmin": -1.0, "xmax": 1.0},
        "interfaces": [0.0],
        "fluxes": [{"kind": "linear"}, {"kind": "quadratic"}],
        "initial": {
            "kind": "piecewise_constant",
            "breakpoints": [-0.5],
            "values": [1.0, 2.0],
        },
        "lambda": 0.5,
        "t_end": 0.9,
        "resolutions": [16],
        "reference_n": 32,
    }


# {{{ round trips and digests


@pytest.mark.parametrize("name", ["experiment1", "experiment2"])
def test_preset_round_trips_through_dict(name):
    config = preset(name)
    assert from_dict(to_dict(config)) == config


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("experiment3")


def test_config_digest_stable_and_sensitive():
    config = preset("experiment1")
    digest = config_digest(config)
    assert len(digest) == 64
    assert set(digest) <= set("0123456789abcdef")
    assert config_digest(preset("experiment1")) == digest
    assert config_digest(dataclasses.replace(config, lam=0.4)) != digest


def test_save_load_round_trip(tmp_path):
    config = preset("experiment2")
    path = tmp_path / "exp2.yaml"
    save_config(config, path)
    loaded = load_config(path)
    assert loaded == config
    assert config_digest(loaded) == config_digest(config)


def test_load_config_failures(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("domain: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="must be a YAML mapping"):
        load_config(listy)


# }}}


# {{{ validation messages


def _drop(key):
    def mutate(raw):
        del raw[key]
    return mutate


def _set(key, value):
    def mutate(raw):
        raw[key] = value
    return mutate


def _two_interfaces(a, b):
    def mutate(raw):
        raw["interfaces"] = [a, b]
        raw["fluxes"] = [{"kind": "linear"}, {"kind": "quadratic"}, {"kind": "linear"}]
    return mutate


VALIDATION_CASES = [
    ("missing-domain", _drop("domain"), "missing required key 'domain'"),
    ("extra-key", _set("gravity", 9.81), "config.gravity: unknown key"),
    ("domain-list", _set("domain", [-1.0, 1.0]), "domain: expected a mapping"),
    ("domain-order", _set("domain", {"xmin": 2.0, "xmax": 1.0}), "must be below"),
    ("interfaces-order", _set("interfaces", [0.0, 0.0]), "strictly increasing"),
    ("interfaces-outside", _set("interfaces", [2.0]), "strictly inside"),
    ("fluxes-count", _set("fluxes", [{"kind": "linear"}]), "1 interfaces need 2 laws"),
    ("fluxes-kind", _set("fluxes", [{"kind": "cubic"}, {"kind": "linear"}]),
     r"fluxes\[0\].kind"),
    ("linear-slope", _set("fluxes", [{"kind": "linear", "a": -1.0}, {"kind": "linear"}]),
     "positive slope"),
    ("quadratic-zero", _set("fluxes", [{"kind": "linear"}, {"kind": "quadratic", "a": 0.0}]),
     "needs a != 0"),
    ("lambda-sign", _set("lambda", 0.0), "lambda: must be positive"),
    ("lambda-bool", _set("lambda", True), "expected a number, got True"),
    ("t-end-sign", _set("t_end", -0.1), "nonnegative"),
    ("resolutions-empty", _set("resolutions", []), "nonempty list"),
    ("resolutions-float", _set("resolutions", [16.5]), "expected an integer"),
    ("resolutions-divide", _set("resolutions", [24]), "not a multiple of 24"),
    ("resolutions-repeat", _set("resolutions", [16, 16, 32]), r"^resolutions\[1\]: repeats 16$"),
    ("reference-n-zero", _set("reference_n", 0), "reference_n: must be positive, got 0"),
    ("reference-n-negative", _set("reference_n", -2048),
     "reference_n: must be positive, got -2048"),
    ("interfaces-collide", _two_interfaces(0.1, 0.12),
     r"resolutions\[0\]: interfaces \(0.1, 0.12\) snap to edge indices \[9, 9\]"),
    ("numerical-flux", _set("numerical_flux", "lax"), "config.numerical_flux: unknown key"),
    ("right-boundary", _set("boundary", {"right": "outflow"}), "boundary.right: unknown key"),
    ("left-boundary-kind", _set("boundary", {"left": {"kind": "periodic"}}),
     "expected outflow or inflow"),
    ("trace-kind", _set("boundary", {"left": {"kind": "inflow",
                                              "trace": {"kind": "random"}}}),
     "expected constant or table"),
    ("trace-value", _set("boundary", {"left": {"kind": "inflow",
                                               "trace": {"kind": "constant"}}}),
     r"^boundary\.left\.trace: missing required key 'value'$"),
    ("trace-path", _set("boundary", {"left": {"kind": "inflow",
                                              "trace": {"kind": "table"}}}),
     r"^boundary\.left\.trace: missing required key 'path'$"),
    # each kind takes its own keys only
    ("constant-trace-path", _set("boundary", {"left": {"kind": "inflow", "trace": {
        "kind": "constant", "value": 0.5, "path": "x.csv"}}}),
     "boundary.left.trace.path: unknown key"),
    ("table-trace-value", _set("boundary", {"left": {"kind": "inflow", "trace": {
        "kind": "table", "path": "x.csv", "value": 3}}}),
     "boundary.left.trace.value: unknown key"),
    ("outflow-trace", _set("boundary", {"left": {"kind": "outflow", "trace": {
        "kind": "constant", "value": 0.5}}}),
     "boundary.left.trace: unknown key"),
    # YAML's .inf
    ("lambda-inf", _set("lambda", float("inf")), "lambda: must be finite, got inf"),
    ("snapshots-range", _set("snapshots", [1.5]), "must lie within"),
    ("outputs-key", _set("outputs", {"weird": "x"}), "unknown key"),
    ("outputs-block", _set("outputs", {"run_dir": "out"}), "config.outputs: unknown key"),
    ("gaussian-width", _set("initial", {"kind": "gaussian_offset", "base": 2.0,
                                        "amplitude": 1.0, "width": 0.0,
                                        "center": 0.0}),
     "must be positive"),
    ("initial-kind", _set("initial", {"kind": "sine"}),
     r"^initial\.kind: expected piecewise_constant or gaussian_offset or table, got 'sine'$"),
    ("initial-no-kind", _set("initial", {"breakpoints": [], "values": [1.0]}),
     r"^initial: missing required key 'kind'$"),
    ("initial-counts", _set("initial", {"kind": "piecewise_constant",
                                        "breakpoints": [-0.5],
                                        "values": [1.0]}),
     "1 breakpoints need 2 values"),
    ("breakpoints-scalar", _set("initial", {"kind": "piecewise_constant",
                                            "breakpoints": 0.5,
                                            "values": [1.0, 2.0]}),
     "initial.breakpoints: expected a list"),
    ("values-scalar", _set("initial", {"kind": "piecewise_constant",
                                       "breakpoints": [],
                                       "values": 1.0}),
     "initial.values: expected a list"),
]


@pytest.mark.parametrize(
    "mutate,pattern",
    [case[1:] for case in VALIDATION_CASES],
    ids=[case[0] for case in VALIDATION_CASES],
)
def test_validation_reports_offending_field(mutate, pattern):
    raw = base_dict()
    mutate(raw)
    with pytest.raises(ConfigError, match=pattern):
        from_dict(raw)


def _flux(law):
    return _set("fluxes", [law, {"kind": "quadratic"}])


def _left(left):
    return _set("boundary", {"left": left})


def _trace(trace):
    return _left({"kind": "inflow", "trace": trace})


# each kinded mapping under {unknown kind, missing kind, missing required key,
# key of another kind}, with its full message; a flux law has no keys of its
# own kind, so it takes a stray key instead of the last two
KINDED_CASES = [
    ("fluxes[0]-unknown-kind", _flux({"kind": "cubic"}),
     "fluxes[0].kind: expected linear or quadratic, got 'cubic'"),
    ("fluxes[0]-no-kind", _flux({"a": 1.0}), "fluxes[0]: missing required key 'kind'"),
    ("fluxes[0]-stray-key", _flux({"kind": "linear", "c": 1.0}), "fluxes[0].c: unknown key"),
    ("initial-unknown-kind", _set("initial", {"kind": "sine"}),
     "initial.kind: expected piecewise_constant or gaussian_offset or table, got 'sine'"),
    ("initial-no-kind", _set("initial", {"breakpoints": [], "values": [1.0]}),
     "initial: missing required key 'kind'"),
    ("initial-missing-key", _set("initial", {"kind": "gaussian_offset", "base": 2.0,
                                             "amplitude": 1.0, "center": 0.0}),
     "initial: missing required key 'width'"),
    ("initial-other-kind-key", _set("initial", {"kind": "table", "path": "x.csv",
                                                "values": [1.0]}),
     "initial.values: unknown key"),
    ("boundary.left-unknown-kind", _left({"kind": "periodic"}),
     "boundary.left.kind: expected outflow or inflow, got 'periodic'"),
    ("boundary.left-no-kind", _left({"trace": {"kind": "constant", "value": 0.5}}),
     "boundary.left: missing required key 'kind'"),
    ("boundary.left-missing-key", _left({"kind": "inflow"}),
     "boundary.left: missing required key 'trace'"),
    ("boundary.left-other-kind-key",
     _left({"kind": "outflow", "trace": {"kind": "constant", "value": 0.5}}),
     "boundary.left.trace: unknown key"),
    ("boundary.left.trace-unknown-kind", _trace({"kind": "random"}),
     "boundary.left.trace.kind: expected constant or table, got 'random'"),
    ("boundary.left.trace-no-kind", _trace({"value": 0.5}),
     "boundary.left.trace: missing required key 'kind'"),
    ("boundary.left.trace-missing-key", _trace({"kind": "constant"}),
     "boundary.left.trace: missing required key 'value'"),
    ("boundary.left.trace-other-kind-key",
     _trace({"kind": "constant", "value": 0.5, "path": "x.csv"}),
     "boundary.left.trace.path: unknown key"),
]


@pytest.mark.parametrize(
    "mutate,message",
    [case[1:] for case in KINDED_CASES],
    ids=[case[0] for case in KINDED_CASES],
)
def test_every_kinded_mapping_reports_kinds_and_keys_one_way(mutate, message):
    raw = base_dict()
    mutate(raw)
    with pytest.raises(ConfigError) as exc:
        from_dict(raw)
    assert str(exc.value) == message


def test_an_unsorted_ladder_is_accepted():
    raw = base_dict()
    raw["resolutions"] = [32, 16]
    assert from_dict(raw).resolutions == (32, 16)


# }}}


# {{{ builders


def test_initial_datum_kinds(tmp_path):
    pc = from_dict(base_dict())
    datum = initial_datum(pc)
    assert isinstance(datum, PiecewiseConstant)
    assert datum(-0.75) == 1.0 and datum(0.5) == 2.0
    assert data_range(pc) == (1.0, 2.0)

    raw = base_dict()
    raw["initial"] = {"kind": "gaussian_offset", "base": 2.0, "amplitude": -0.5,
                      "width": 0.1, "center": 0.25}
    gauss = from_dict(raw)
    bump = initial_datum(gauss)
    assert bump(0.25) == pytest.approx(1.5)
    assert bump(-1.0) == pytest.approx(2.0, abs=1e-12)
    # negative amplitude dips below the base value
    assert data_range(gauss) == (1.5, 2.0)

    table = tmp_path / "datum.csv"
    table.write_text("x,u\n-1.0,1.0\n1.0,3.0\n")
    raw = base_dict()
    raw["initial"] = {"kind": "table", "path": str(table)}
    tab = from_dict(raw)
    sampled = initial_datum(tab)
    assert isinstance(sampled, SampledTable)
    assert sampled(0.0) == pytest.approx(2.0)
    assert data_range(tab) == (1.0, 3.0)

    # each datum kind under each inflow trace kind: the hull of both, the
    # table trace read on [0, t_end] = [0, 0.9], where it ends at 1.375
    trace = tmp_path / "trace.csv"
    trace.write_text("0.0,2.5\n1.0,1.25\n")
    traces = ({"kind": "constant", "value": 0.5}, {"kind": "table", "path": str(trace)})
    hulls = {"piecewise_constant": [(0.5, 2.0), (1.0, 2.5)],
             "gaussian_offset": [(0.5, 2.0), (1.375, 2.5)],
             "table": [(0.5, 3.0), (1.0, 3.0)]}
    for datum in (pc, gauss, tab):
        for left, hull in zip(traces, hulls[datum.initial["kind"]]):
            raw = base_dict()
            raw["initial"] = datum.initial
            raw["boundary"] = {"left": {"kind": "inflow", "trace": left}}
            assert data_range(from_dict(raw)) == hull


def test_initial_table_failures(tmp_path):
    raw = base_dict()
    raw["initial"] = {"kind": "table", "path": str(tmp_path / "none.csv")}
    with pytest.raises(ConfigError, match="cannot read table"):
        initial_datum(from_dict(raw))

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("1.0\n2.0\n")
    raw["initial"] = {"kind": "table", "path": str(narrow)}
    with pytest.raises(ConfigError, match="two numeric columns"):
        initial_datum(from_dict(raw))

    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("1.0,2.0\n0.0,3.0\n")
    raw["initial"] = {"kind": "table", "path": str(unsorted)}
    with pytest.raises(ConfigError, match="increasing"):
        initial_datum(from_dict(raw))


def test_build_model_rejects_law_decreasing_on_data():
    raw = base_dict()
    raw["interfaces"] = []
    raw["fluxes"] = [{"kind": "quadratic", "a": -1.0}]
    config = from_dict(raw)  # validation cannot know the data range yet
    with pytest.raises(ConfigError, match=r"fluxes\[0\]"):
        build_model(config)


def test_build_boundary_variants(tmp_path):
    assert isinstance(build_boundary(from_dict(base_dict())), Outflow)

    raw = base_dict()
    raw["boundary"] = {"left": {"kind": "inflow",
                                "trace": {"kind": "constant", "value": 5.0}}}
    config = from_dict(raw)
    inflow = build_boundary(config)
    assert isinstance(inflow, Inflow)
    assert inflow.trace(0.7) == 5.0
    assert np.asarray(inflow.trace(np.array([0.0, 0.3]))).shape == (2,)
    # the trace value widens the data hull
    assert data_range(config) == (1.0, 5.0)

    table = tmp_path / "trace.csv"
    table.write_text("0.0,1.5\n1.0,2.5\n")
    raw["boundary"] = {"left": {"kind": "inflow",
                                "trace": {"kind": "table", "path": str(table)}}}
    config = from_dict(raw)
    inflow = build_boundary(config)
    assert isinstance(inflow.trace, SampledTable)
    assert inflow.trace(0.5) == pytest.approx(2.0)
    # the trace is read up to t_end = 0.9, where the table reads 2.4
    assert data_range(config) == (1.0, 2.4)


def test_a_relative_table_path_is_read_from_the_config_file(tmp_path, monkeypatch):
    # from_dict reads a relative path from the working directory; a saved
    # config names it from its own directory, and loading reads it from there
    (tmp_path / "tables").mkdir()
    (tmp_path / "tables" / "datum.csv").write_text("x,u\n-1.0,1.0\n1.0,3.0\n")
    (tmp_path / "tables" / "trace.csv").write_text("0.0,1.5\n1.0,2.5\n")
    raw = base_dict()
    raw["initial"] = {"kind": "table", "path": "tables/datum.csv"}
    raw["boundary"] = {"left": {"kind": "inflow",
                                "trace": {"kind": "table", "path": "tables/trace.csv"}}}
    monkeypatch.chdir(tmp_path)
    config = from_dict(raw)
    assert data_range(config) == (1.0, 3.0)
    (tmp_path / "configs").mkdir()
    save_config(config, "configs/study.yaml")
    assert "path: ../tables/trace.csv" in (tmp_path / "configs" / "study.yaml").read_text()

    monkeypatch.chdir(tmp_path / "tables")
    for loaded in (load_config("../configs/study.yaml"),
                   load_config(tmp_path / "configs" / "study.yaml")):
        assert data_range(loaded) == (1.0, 3.0)
        assert initial_datum(loaded)(0.0) == 2.0
        assert build_boundary(loaded).trace(0.5) == 2.0
    with pytest.raises(ConfigError, match="cannot read table"):
        data_range(config)


def test_build_solver_config_flux_override():
    # the march takes only lam, t_end and the left boundary: every edge flux
    # is upwind and the right boundary is open
    built = build_solver_config(from_dict(base_dict()))
    assert [f.name for f in dataclasses.fields(built)] == ["lam", "t_end", "left"]
    assert built == SolverConfig(lam=0.5, t_end=0.9, left=Outflow())


# }}}
