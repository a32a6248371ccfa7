"""Command-line front end: single runs, refinement studies, verification.

Exit codes: 0 on success, 1 for configuration/validation problems, 2 for
runtime or numerical failures, 3 when a verification check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import zip_longest

import numpy as np

from .analysis import (ErrorReport, _level_range, _retained_levels, _wins,
                       entropy_residual, l1_error, ooc, spatial_tv)
from .config import (
    ExperimentConfig,
    build_model,
    build_problem,
    build_solver_config,
    config_digest,
    data_range,
    load_config,
    preset,
)
from .errors import (
    ConfigError,
    DiagnosticInputError,
    DiscfluxError,
    DomainError,
    FluxRangeError,
    GridAlignmentError,
    SequencingError,
    StabilityError,
)
from .fluxes import _chain, invariant_interval
from .grid import PiecewiseConstant, build_grid, cell_average
from .solver import ProblemSpec, SolverConfig, _check_cfl, _inflow_column, _march, run


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = preset(args.preset) if args.preset else load_config(args.config)
        if args.command == "run":
            return cmd_run(config, args.n, args.out)
        if args.command == "convergence":
            return cmd_convergence(config, args.out)
        return cmd_verify(config)
    except (ConfigError, GridAlignmentError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DiscfluxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # runtime failures and reports bad usage as validation (exit 1)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="discflux",
        description="Finite-volume runs for conservation laws with interface-switched fluxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single solve, one CSV per snapshot time")
    _add_source(p_run)
    p_run.add_argument("--n", type=int, required=True, help="number of cells")
    p_run.add_argument("--out", default=".", help="output directory")

    p_conv = sub.add_parser("convergence", help="refinement study against the reference grid")
    _add_source(p_conv)
    p_conv.add_argument("--out", default=None, help="CSV output path (stdout only if omitted)")

    p_verify = sub.add_parser("verify", help="invariant checks on the configured study")
    _add_source(p_verify)
    return parser


def _add_source(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a YAML experiment config")
    source.add_argument("--preset", choices=("experiment1", "experiment2"))


# {{{ run


def cmd_run(config: ExperimentConfig, n: int, out_dir: str) -> int:
    names = [f"snapshot_t{t:g}.csv" for t in config.snapshots]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"snapshots[{i}]: time {config.snapshots[i]!r} would overwrite "
                              f"{name} of snapshots[{names.index(name)}]")
    grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
    model = build_model(config)
    problem = build_problem(config)
    solver_config = build_solver_config(config)
    trajectory = run(problem, grid, model, solver_config, snapshot_times=config.snapshots)

    os.makedirs(out_dir, exist_ok=True)
    # the cell-center column is the same in every snapshot
    prefixes = [f"{x:.17g}," for x in grid.centers.tolist()]
    written = []
    name_of = dict(zip(config.snapshots, names))
    for snap in trajectory.snapshots:
        fname = name_of[snap.requested]
        path = os.path.join(out_dir, fname)
        # each distinct bit pattern is formatted once (0.0 and -0.0 apart)
        bits, rows = np.unique(snap.state.u.view(np.int64), return_inverse=True)
        texts = [f"{u:.17g}\n" for u in bits.view(np.float64).tolist()]
        with open(path, "w") as fh:
            fh.write("x_center,u\n")
            fh.write("".join([x + texts[i] for x, i in zip(prefixes, rows.tolist())]))
        written.append({"file": fname, "requested": snap.requested, "time": snap.state.t})
        print(f"wrote {path}")
    meta = {
        "config_digest": config_digest(config),
        "n": grid.n,
        "dx": grid.dx,
        "dt": solver_config.lam * grid.dx,
        "steps": trajectory.final.step,
        "t_end": config.t_end,
        "snapshots": written,
    }
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {meta_path}")
    return 0


# }}}


# {{{ convergence


def cmd_convergence(config: ExperimentConfig, out_path=None) -> int:
    report = convergence_report(config)
    lines = ["n,l1_error,ooc"]
    for n, err, rate in report.rows:
        rate_text = "" if rate is None else f"{rate:.17g}"
        lines.append(f"{n},{err:.17g},{rate_text}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {out_path}")
    return 0


def convergence_report(config: ExperimentConfig) -> ErrorReport:
    """Solve every resolution and compare against the reference grid."""
    model = build_model(config)
    problem = build_problem(config)
    solver_config = build_solver_config(config)

    ref_grid = build_grid(config.xmin, config.xmax, config.reference_n, config.interfaces)
    reference = run(problem, ref_grid, model, solver_config).final

    pairs = []
    for n in sorted(config.resolutions):
        grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
        if n == config.reference_n:
            final = reference
        else:
            final = run(problem, grid, model, solver_config).final
        pairs.append((n, l1_error(final, grid, reference, ref_grid)))

    # the reference's own row has error 0 and takes no rate; so does a row
    # next to an exact one below it, as an exact scheme on a steady datum gives
    below = [(n, err) for n, err in pairs if n < config.reference_n]
    try:
        rates = [None if 0.0 in (e0, e1) else ooc([(n0, e0), (n1, e1)])[0]
                 for (n0, e0), (n1, e1) in zip(below, below[1:])]
    except SequencingError:
        rates = []  # non-doubling ladder: errors only, no rates
    rows = tuple((n, err, rate) for (n, err), rate in zip_longest(pairs, [None, *rates]))
    return ErrorReport(
        rows=rows,
        reference=f"n={config.reference_n}",
        config_digest=config_digest(config),
    )


# }}}


# {{{ verify


_CHECKS = ("cfl", "steady_state", "monotonicity", "tvd", "entropy_residual", "temporal_tv")


def cmd_verify(config: ExperimentConfig) -> int:
    """Run the invariant battery and report one line per check."""
    model = build_model(config)
    data = data_range(config)
    u_range = invariant_interval(model, data)
    try:
        product = _check_cfl(config.lam, [(seg, *u_range) for seg in model.segments])
    except StabilityError as exc:
        return _report([("cfl", "FAIL", str(exc))], "cfl violated")

    problem = build_problem(config)
    solver_config = build_solver_config(config)
    grid0 = build_grid(config.xmin, config.xmax, min(config.resolutions), config.interfaces)
    trajectory0 = run(problem, grid0, model, solver_config,
                      record_increments=True, retain_levels=True)
    results = [
        ("cfl", "PASS",
         f"lambda*max_speed = {product:.6g} on range [{u_range[0]:.6g}, {u_range[1]:.6g}]"),
        _check_steady_state(data, model, solver_config, grid0, u_range),
        _check_monotonicity(data, model, solver_config, grid0, u_range),
    ]
    if trajectory0.final.step == 0:
        # t_end 0 leaves the initial level alone: no step to check
        return _report(results, "the run takes no step, so it has one time level")
    return _report([*results,
                    _check_tvd(trajectory0, grid0, model),
                    _check_entropy(config, problem, model, solver_config, u_range),
                    _check_temporal_tv(trajectory0, grid0, model)])


def _report(results, skipped="") -> int:
    """Print each check's line, the checks not reached as SKIP ``skipped``."""
    results = results + [(name, "SKIP", skipped) for name in _CHECKS[len(results):]]
    for name, status, detail in results:
        print(f"{name:<20} {status:<5} {detail}")
    return 3 if any(status == "FAIL" for _, status, _ in results) else 0


def _gate(name, what, worst, limit, where="", note=""):
    """A check's line: PASS when its worst value is within ``limit``.

    A NaN worst value fails, as no comparison with it holds.
    """
    status = "PASS" if worst <= limit else "FAIL"
    return (name, status, f"max {what} {worst:.3e}{where} (limit {limit:g}){note}")


def _check_steady_state(data, model, solver_config, grid, u_range):
    if not grid.interfaces:
        return ("steady_state", "SKIP", "no interfaces to couple")
    c = 0.5 * (sum(data))
    # outflow on both ends: this check exercises the interface coupling, and
    # an inflow trace unrelated to the adapted constants would mask it
    frozen = SolverConfig(lam=solver_config.lam, t_end=solver_config.t_end)
    try:
        datum = PiecewiseConstant(grid.interfaces, _chain(model, c, u_range))
        trajectory = run(ProblemSpec((grid.xmin, grid.xmax), datum), grid, model, frozen)
    except DiscfluxError as exc:
        # the datum's own invariant range may chain past a law's image
        return ("steady_state", "SKIP", f"adapted-constant datum cannot run: {exc}")
    drift = float(np.max(np.abs(trajectory.final.u - cell_average(datum, grid))))
    return _gate("steady_state", "drift", drift, 1e-11, " over full run")


def _check_monotonicity(data, model, solver_config, grid, u_range):
    worst = _ordering_gap(data, model, solver_config, grid, u_range)
    return _gate("monotonicity", "ordering violation", worst, 1e-13,
                 " over 20 pairs x 100 steps")


def _unit_draws(shape) -> np.ndarray:
    """Fixed pseudo-random values in [0, 1), one per entry of ``shape``.

    The splitmix64 finalizer hashes the counters 1, 2, ... in row-major
    order, and the top 53 bits of each hash are scaled into [0, 1) exactly.
    A counter hash keeps no generator state, so nothing loads numpy.random.
    """
    z = np.arange(1, 1 + int(np.prod(shape)), dtype=np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float).reshape(shape) * 2.0**-53


def _ordering_gap(data, model, solver_config, grid, u_range) -> float:
    """Largest low-minus-high gap of 20 drawn ordered pairs over 100 steps.

    The pairs are :func:`_unit_draws` scaled into ``data``, the config's
    data range.  Every pair's low and high members march as one stack,
    bracketed by the range the cfl line checked, so a violated cfl shows up
    as a gap, not as an error.  The march goes block by block, and
    each block's largest gap at each level takes part; a NaN gap wins and
    stays, as in the entropy report.
    """
    lo, hi = data
    drawn = lo + (hi - lo) * _unit_draws((20, 2, grid.n))
    state = np.empty((2, 20, grid.n))
    np.minimum(drawn[:, 0], drawn[:, 1], out=state[0])
    np.maximum(drawn[:, 0], drawn[:, 1], out=state[1])
    gap = np.empty((20, grid.n))
    lam = solver_config.lam
    dt = lam * grid.dx
    column = _inflow_column(solver_config.left, dt * np.arange(100), dt, dt, solver_config.t_end)
    worst = 0.0
    steps = _march(grid, model, u_range, state, np.empty_like(state), [lam] * 100, column)
    for _, cells, new, _ in steps:
        value = float(np.max(np.subtract(new[0], new[1], out=gap[..., cells])))
        if _wins(value, worst):
            worst = value
    return worst


def _check_tvd(trajectory, grid, model):
    slices = grid.subdomain_slices()
    levels, _ = _retained_levels(trajectory, grid, model)
    # each level's per-subdomain TV and first cells, taken once and differenced
    tvs = np.array([[spatial_tv(level, grid, i) for i in range(len(slices))]
                    for level in levels])
    firsts = np.array([level.u[[sl.start for sl in slices]] for level in levels])
    # the first cell of a subdomain is set by the boundary or the interface
    # map; its motion is the only admissible TV source
    excess = np.diff(tvs, axis=0) - np.abs(np.diff(firsts, axis=0))
    return _gate("tvd", "per-subdomain TV excess", float(np.max(excess)), 1e-12)


def _check_entropy(config, problem, model, solver_config, u_range):
    n = min(config.resolutions, key=lambda m: abs(m - 64))
    grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
    trajectory = run(problem, grid, model, solver_config, retain_levels=True)
    # a constant whose adapted chain leaves a law's image has no entropy pair
    constants = [c for c in np.linspace(*u_range, 17) if _chains(model, c, u_range)]
    if not constants:
        return ("entropy_residual", "SKIP",
                "no constant's adapted chain stays inside every law's image")
    try:
        report = entropy_residual(trajectory, grid, model, constants)
    except DiagnosticInputError as exc:
        # a grid of one cell per law has no cell the inequality applies to
        return ("entropy_residual", "SKIP", f"{exc} at n={n}")
    cell, level, c = report.argmax
    kept = f"{len(constants)} of 17" if len(constants) < 17 else "17"
    return _gate("entropy_residual", "residual", report.max_residual, 1e-12,
                 f" at cell {cell}, step {level}, c={c:.6g} over {kept} constants at n={n}")


def _chains(model, c, seed) -> bool:
    try:
        _chain(model, c, seed)
    except FluxRangeError:
        return False
    return True


def _check_temporal_tv(trajectory, grid, model):
    # Each cell's temporal variation S_j = sum_n |u_j^{n+1} - u_j^n| obeys an
    # exact local recursion: for a cell updated by the interior scheme whose
    # left neighbor is too, S_j <= |u_j^0 - u_{j-1}^0| + S_{j-1}; at an
    # interface cell the ghost map gives S_j (past the first step) a Lipschitz
    # factor max g' / min f' times the neighbor's variation.
    levels, _ = _retained_levels(trajectory, grid, model)
    u0 = levels[0].u
    total = trajectory.temporal_increments
    tail = total - np.abs(levels[1].u - u0)

    lo, hi = _level_range(levels)
    slacks = []
    quotients = []
    for i, sl in enumerate(grid.subdomain_slices()):
        start = sl.start
        interior = np.arange(start + 2, sl.stop)
        if interior.size:
            bound = np.abs(u0[interior] - u0[interior - 1]) + total[interior - 1]
            slacks.append(np.max(total[interior] - bound))
        if i > 0:
            left_lip = model.segments[i - 1].deriv_bounds(lo, hi)[1]
            own_alpha = model.segments[i].deriv_bounds(lo, hi)[0]
            quotient = left_lip / own_alpha
            quotients.append(quotient)
            slacks.append(tail[start] - quotient * tail[start - 1])
    quotient_text = ", ".join(f"{q:.3g}" for q in quotients) or "n/a"
    return _gate("temporal_tv", "recursion slack", float(np.max([0.0, *slacks])), 1e-12,
                 note=f"; ghost Lipschitz quotients: {quotient_text}")


# }}}


if __name__ == "__main__":
    sys.exit(main())
