"""Experiment configurations: parsing, validation, serialization, builders.

A configuration names everything a study needs (domain, interfaces, flux
laws, initial datum, march parameters, resolution ladder) in a plain YAML
mapping.  Validation reports the offending field by dotted path.  Builders
turn a validated configuration into the library objects the solver consumes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridAlignmentError, _tolerance
from .fluxes import PiecewiseFlux, linear_flux, quadratic_flux
from .grid import PiecewiseConstant, SampledTable, build_grid, _samples
from .solver import Inflow, Outflow, ProblemSpec, SolverConfig

# each datum and trace kind with its required keys; the initial datum takes
# the first three, an inflow trace the last two
_DATA = {
    "piecewise_constant": ("breakpoints", "values"),
    "gaussian_offset": ("base", "amplitude", "width", "center"),
    "table": ("path",),
    "constant": ("value",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description."""

    xmin: float
    xmax: float
    interfaces: tuple[float, ...]
    fluxes: tuple[dict, ...]
    initial: dict
    lam: float
    t_end: float
    resolutions: tuple[int, ...]
    reference_n: int
    boundary_left: dict = field(default_factory=lambda: {"kind": "outflow"})
    snapshots: tuple[float, ...] = ()


# {{{ parsing and validation


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(path, f"must be finite, got {value}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return int(value)


def _as_map(value, path: str, required=(), optional=()) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    for key in required:
        if key not in value:
            _fail(path, f"missing required key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}", "unknown key")
    return value


def _kind_of(value, path: str, keys: dict, optional=()) -> str:
    """The ``kind`` of the mapping ``value``, one of ``keys``, which maps it to its required keys.

    ``optional`` names the keys every kind may carry; any other key is unknown.
    """
    _as_map(value, path, required=("kind",), optional=(*sum(keys.values(), ()), *optional))
    kind = value["kind"]
    if kind not in tuple(keys):
        _fail(f"{path}.kind", f"expected {' or '.join(keys)}, got {kind!r}")
    _as_map(value, path, required=("kind", *keys[kind]), optional=optional)
    return kind


def _as_list(value, path: str, item, nonempty: bool = False) -> tuple:
    """``item(x, "<path>[i]")`` for each entry of the list ``value``."""
    if not isinstance(value, (list, tuple)) or (nonempty and not value):
        _fail(path, "expected a nonempty list" if nonempty else "expected a list")
    return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(value))


def _as_count(value, path: str) -> int:
    n = _as_int(value, path)
    if n < 1:
        _fail(path, f"must be positive, got {n}")
    return n


def _check_increasing(xs: tuple, path: str, show: bool = False):
    if any(b <= a for a, b in zip(xs, xs[1:])):
        _fail(path, "must be strictly increasing" + (f", got {list(xs)}" if show else ""))


def _check_pieces(path: str, items: tuple, item_name: str, cuts: tuple, cut_name: str):
    """``k`` cuts make ``k + 1`` pieces, one item each."""
    if len(items) != len(cuts) + 1:
        _fail(path, f"{len(cuts)} {cut_name} need {len(cuts) + 1} {item_name}, got {len(items)}")


def from_dict(raw: dict) -> ExperimentConfig:
    """Validate a plain mapping and freeze it into an :class:`ExperimentConfig`."""
    _as_map(
        raw,
        "config",
        required=("domain", "interfaces", "fluxes", "initial", "lambda",
                  "t_end", "resolutions", "reference_n"),
        optional=("boundary", "snapshots"),
    )
    dom = _as_map(raw["domain"], "domain", required=("xmin", "xmax"))
    xmin = _as_float(dom["xmin"], "domain.xmin")
    xmax = _as_float(dom["xmax"], "domain.xmax")
    if xmin >= xmax:
        _fail("domain", f"xmin={xmin} must be below xmax={xmax}")

    interfaces = _as_list(raw["interfaces"], "interfaces", _as_float)
    _check_increasing(interfaces, "interfaces", show=True)
    if any(not xmin < x < xmax for x in interfaces):
        _fail("interfaces", f"must lie strictly inside ({xmin}, {xmax})")
    fluxes = _as_list(raw["fluxes"], "fluxes", _validated_flux)
    _check_pieces("fluxes", fluxes, "laws", interfaces, "interfaces")

    initial = _validated_datum(raw["initial"], "initial",
                               ("piecewise_constant", "gaussian_offset", "table"))
    lam = _as_float(raw["lambda"], "lambda")
    if lam <= 0.0:
        _fail("lambda", f"must be positive, got {lam}")
    t_end = _as_float(raw["t_end"], "t_end")
    if t_end < 0.0:
        _fail("t_end", f"must be nonnegative, got {t_end}")

    resolutions = _as_list(raw["resolutions"], "resolutions", _as_count, nonempty=True)
    for i, n in enumerate(resolutions):
        if n in resolutions[:i]:
            _fail(f"resolutions[{i}]", f"repeats {n}")
    reference_n = _as_count(raw["reference_n"], "reference_n")
    for label, n in [
        *((f"resolutions[{i}]", n) for i, n in enumerate(resolutions)),
        ("reference_n", reference_n),
    ]:
        if reference_n % n != 0:
            _fail(label, f"reference_n={reference_n} is not a multiple of {n}")
        try:
            build_grid(xmin, xmax, n, interfaces)
        except GridAlignmentError as exc:
            _fail(label, str(exc))

    boundary_left = _validated_boundary(raw.get("boundary", {"left": "outflow"}))

    snapshots = _as_list(raw.get("snapshots", []), "snapshots", _as_float)
    if any(not 0.0 <= s <= t_end for s in snapshots):
        _fail("snapshots", f"times must lie within [0, {t_end}]")

    return ExperimentConfig(
        xmin=xmin,
        xmax=xmax,
        interfaces=interfaces,
        fluxes=fluxes,
        initial=initial,
        lam=lam,
        t_end=t_end,
        resolutions=resolutions,
        reference_n=reference_n,
        boundary_left=boundary_left,
        snapshots=snapshots,
    )


def _validated_flux(raw, path: str) -> dict:
    kind = _kind_of(raw, path, {"linear": (), "quadratic": ()}, optional=("a", "b"))
    a = _as_float(raw.get("a", 1.0), f"{path}.a")
    b = _as_float(raw.get("b", 0.0), f"{path}.b")
    if kind == "linear" and a <= 0.0:
        _fail(f"{path}.a", f"linear law needs a positive slope, got {a}")
    if kind == "quadratic" and a == 0.0:
        _fail(f"{path}.a", "quadratic law needs a != 0")
    return {"kind": kind, "a": a, "b": b}


def _validated_datum(raw, path: str, kinds: tuple) -> dict:
    """A datum or trace spec of one of ``kinds``, the keys of :data:`_DATA`."""
    kind = _kind_of(raw, path, {k: _DATA[k] for k in kinds})
    if kind == "table":
        return {"kind": kind, "path": str(raw["path"])}
    if kind == "piecewise_constant":
        bps = _as_list(raw["breakpoints"], f"{path}.breakpoints", _as_float)
        vals = _as_list(raw["values"], f"{path}.values", _as_float)
        _check_pieces(path, vals, "values", bps, "breakpoints")
        _check_increasing(bps, f"{path}.breakpoints")
        return {"kind": kind, "breakpoints": list(bps), "values": list(vals)}
    spec = {"kind": kind, **{k: _as_float(raw[k], f"{path}.{k}") for k in _DATA[kind]}}
    if kind == "gaussian_offset" and spec["width"] <= 0.0:
        _fail(f"{path}.width", f"must be positive, got {spec['width']}")
    return spec


def _validated_boundary(raw) -> dict:
    left = _as_map(raw, "boundary", optional=("left",)).get("left", "outflow")
    if left == "outflow" or _kind_of(left, "boundary.left",
                                     {"outflow": (), "inflow": ("trace",)}) == "outflow":
        return {"kind": "outflow"}
    return {"kind": "inflow",
            "trace": _validated_datum(left["trace"], "boundary.left.trace", ("constant", "table"))}


# }}}


# {{{ serialization


def to_dict(config: ExperimentConfig) -> dict:
    """Canonical plain mapping; ``from_dict`` of it reproduces ``config``."""
    return {
        "domain": {"xmin": config.xmin, "xmax": config.xmax},
        "interfaces": list(config.interfaces),
        "fluxes": [dict(fx) for fx in config.fluxes],
        "initial": dict(config.initial),
        "lambda": config.lam,
        "t_end": config.t_end,
        "boundary": {"left": _boundary_to_dict(config.boundary_left)},
        "resolutions": list(config.resolutions),
        "reference_n": config.reference_n,
        "snapshots": list(config.snapshots),
    }


def _boundary_to_dict(left: dict):
    if left["kind"] == "outflow":
        return "outflow"
    return {"kind": "inflow", "trace": dict(left["trace"])}


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML config; a relative table ``path`` is read from its directory."""
    import yaml  # only a config file needs PyYAML; presets and from_dict do not load it

    class Loader(yaml.SafeLoader):
        """The safe loader, which also reads an exponent without a dot (``5e-1``) as a float.

        PyYAML follows YAML 1.1, whose floats need a dot before an exponent.
        """

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9][0-9_]*\.?[0-9_]*|\.[0-9_]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a YAML mapping")
    for table in _tables(raw):
        table["path"] = os.path.join(os.path.dirname(path), str(table["path"]))
    return from_dict(raw)


def save_config(config: ExperimentConfig, path):
    """Write ``config`` as YAML; a relative table ``path`` is rewritten relative to the file."""
    import yaml

    raw = to_dict(config)
    for table in _tables(raw):
        if not os.path.isabs(table["path"]):
            table["path"] = os.path.relpath(table["path"], os.path.dirname(path) or os.curdir)
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh, sort_keys=False)


def _tables(raw: dict) -> list:
    """The datum and inflow-trace mappings of ``raw`` that name a table ``path``."""
    boundary = raw.get("boundary")
    left = boundary.get("left") if isinstance(boundary, dict) else None
    trace = left.get("trace") if isinstance(left, dict) else None
    return [t for t in (raw.get("initial"), trace) if isinstance(t, dict) and "path" in t]


def config_digest(config: ExperimentConfig) -> str:
    """Hex digest identifying the configuration contents."""
    canonical = json.dumps(to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# }}}


# {{{ presets


def preset(name: str) -> ExperimentConfig:
    """Built-in configurations for the two reference studies."""
    if name == "experiment1":
        return from_dict({
            "domain": {"xmin": -1.0, "xmax": 1.0},
            "interfaces": [0.0],
            "fluxes": [
                {"kind": "linear", "a": 1.0, "b": 0.0},
                {"kind": "quadratic", "a": 1.0, "b": 0.0},
            ],
            "initial": {
                "kind": "piecewise_constant",
                "breakpoints": [-0.5],
                "values": [0.5, 2.0],
            },
            "lambda": 0.5,
            "t_end": 0.9,
            "resolutions": [16, 32, 64, 128, 256, 512, 1024],
            "reference_n": 2048,
            "snapshots": [0.3, 0.6, 0.9],
        })
    if name == "experiment2":
        return from_dict({
            "domain": {"xmin": -1.0, "xmax": 1.0},
            "interfaces": [0.0],
            "fluxes": [
                {"kind": "quadratic", "a": 1.0, "b": 0.0},
                {"kind": "linear", "a": 1.0, "b": 0.0},
            ],
            "initial": {
                "kind": "gaussian_offset",
                "base": 2.0,
                "amplitude": 1.0,
                "width": 0.1,
                "center": -0.75,
            },
            "lambda": 0.2,
            "t_end": 0.5,
            "resolutions": [16, 32, 64, 128, 256, 512, 1024],
            "reference_n": 2048,
            "snapshots": [0.2, 0.3, 0.5],
        })
    raise ConfigError(f"unknown preset {name!r}; available: experiment1, experiment2")


# }}}


# {{{ builders


def initial_datum(config: ExperimentConfig):
    return _datum(config.initial)[0]


def data_range(config: ExperimentConfig) -> tuple[float, float]:
    """Hull of the values a study reads of its initial datum and inflow trace, if any.

    The datum is read on [xmin, xmax] and the trace on [0, t_end].  A table
    counts its values at :func:`~discflux.grid._samples` of its window, so
    rows past the window leave the hull alone; one that does not cover its
    window raises :class:`DomainError`.
    """
    values = []
    for spec, lo, hi in ((config.initial, config.xmin, config.xmax),
                         (config.boundary_left.get("trace"), 0.0, config.t_end)):
        if spec is not None:  # no trace on an outflow
            datum, hull = _datum(spec)
            values.append(datum(_samples(datum, lo, hi)) if hull is None else hull)
    values = np.hstack(values)
    return float(values.min()), float(values.max())


def _datum(spec: dict):
    """The datum or trace that ``spec`` names, and values whose hull is its values'.

    A table gives ``None`` for its values: :func:`data_range` reads it on its window.
    """
    kind = spec["kind"]
    if kind == "piecewise_constant":
        return PiecewiseConstant(tuple(spec["breakpoints"]), tuple(spec["values"])), spec["values"]
    if kind == "table":
        return _load_table(spec["path"]), None
    if kind == "constant":
        value = spec["value"]

        def constant(t):
            return value + 0.0 * np.asarray(t, dtype=float)

        return constant, [value]
    base, amp, width, center = (spec[k] for k in _DATA[kind])

    def bump(x):
        return base + amp * np.exp(-np.square((np.asarray(x, dtype=float) - center) / width))

    return bump, (base, base + amp)


def build_model(config: ExperimentConfig) -> PiecewiseFlux:
    lo, hi = data_range(config)
    pad = _tolerance(1e-6, lo, hi)
    interval = (lo - pad, hi + pad)
    segments = []
    for i, fx in enumerate(config.fluxes):
        try:
            if fx["kind"] == "linear":
                segments.append(linear_flux(fx["a"], fx["b"]))
            else:
                segments.append(quadratic_flux(fx["a"], fx["b"], interval=interval))
        except ValueError as exc:
            raise ConfigError(f"fluxes[{i}]: {exc}") from exc
    return PiecewiseFlux(config.interfaces, segments)


def build_problem(config: ExperimentConfig) -> ProblemSpec:
    return ProblemSpec((config.xmin, config.xmax), initial_datum(config))


def build_boundary(config: ExperimentConfig):
    left = config.boundary_left
    return Outflow() if left["kind"] == "outflow" else Inflow(_datum(left["trace"])[0])


def build_solver_config(config: ExperimentConfig) -> SolverConfig:
    return SolverConfig(lam=config.lam, t_end=config.t_end, left=build_boundary(config))


def _load_table(path) -> SampledTable:
    try:
        data = np.genfromtxt(path, delimiter=",", comments="#")
    except OSError as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    data = np.atleast_2d(data)
    if data.shape[0] and np.all(np.isnan(data[0])):
        data = data[1:]  # header row
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ConfigError(f"table {path} must have two numeric columns")
    try:
        return SampledTable(data[:, 0], data[:, 1])
    except ValueError as exc:
        raise ConfigError(f"table {path}: {exc}") from exc


# }}}
