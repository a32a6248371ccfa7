"""Command-line front end: single runs, refinement studies, verification.

Exit codes: 0 on success, 1 for configuration/validation problems, 2 for
runtime or numerical failures, 3 when a verification check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import (ErrorReport, _adapted_constants, _wins, entropy_residual, l1_error, ooc,
                       spatial_tv)
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
    DiscfluxError,
    DomainError,
    FluxRangeError,
    GridAlignmentError,
    SequencingError,
    StabilityError,
)
from .fluxes import invariant_interval
from .grid import PiecewiseConstant, build_grid, cell_average
from .solver import (_NUMERICAL_FLUXES, ProblemSpec, SolverConfig, _check_cfl, _March,
                     numerical_flux_value, run)


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
    grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
    model = build_model(config)
    problem = build_problem(config)
    solver_config = build_solver_config(config)
    trajectory = run(problem, grid, model, solver_config, snapshot_times=config.snapshots)

    os.makedirs(out_dir, exist_ok=True)
    # the cell-center column is the same in every snapshot
    prefixes = [f"{x:.17g}," for x in grid.centers.tolist()]
    written = []
    for snap in trajectory.snapshots:
        fname = f"snapshot_t{snap.requested:g}.csv"
        path = os.path.join(out_dir, fname)
        with open(path, "w") as fh:
            fh.write("x_center,u\n")
            fh.write("".join([f"{x}{u:.17g}\n"
                              for x, u in zip(prefixes, snap.state.u.tolist())]))
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

    try:
        rates = [None] + ooc(pairs)  # empty rate list when only one resolution
    except SequencingError:
        rates = [None] * len(pairs)  # non-doubling ladder: errors only, no rates
    rows = tuple((n, err, rate) for (n, err), rate in zip(pairs, rates))
    return ErrorReport(
        rows=rows,
        reference=f"n={config.reference_n}",
        config_digest=config_digest(config),
    )


# }}}


# {{{ verify


def cmd_verify(config: ExperimentConfig) -> int:
    """Run the invariant battery and report one line per check."""
    results = []

    model = build_model(config)
    u_range = invariant_interval(model, data_range(config))
    try:
        product = _check_cfl(config.lam, [(seg, *u_range) for seg in model.segments])
    except StabilityError as exc:
        results.append(("cfl", "FAIL", str(exc)))
        for name in ("steady_state", "monotonicity", "tvd", "entropy_residual",
                     "temporal_tv", "scheme_equivalence"):
            results.append((name, "SKIP", "cfl violated"))
        return _report(results)
    results.append(("cfl", "PASS",
                    f"lambda*max_speed = {product:.6g} on range [{u_range[0]:.6g}, {u_range[1]:.6g}]"))

    problem = build_problem(config)
    solver_config = build_solver_config(config)
    n0 = min(config.resolutions)
    grid0 = build_grid(config.xmin, config.xmax, n0, config.interfaces)

    trajectory0 = run(problem, grid0, model, solver_config,
                      record_increments=True, retain_levels=True)
    results.append(_check_steady_state(config, model, solver_config, grid0, u_range))
    results.append(_check_monotonicity(config, model, solver_config, grid0, u_range))
    if trajectory0.final.step == 0:
        # t_end 0 leaves the initial level alone: no step to check
        for name in ("tvd", "entropy_residual", "temporal_tv", "scheme_equivalence"):
            results.append((name, "SKIP", "the run takes no step, so it has one time level"))
        return _report(results)
    results.append(_check_tvd(trajectory0, grid0))
    results.append(_check_entropy(config, problem, model, solver_config, u_range))
    results.append(_check_temporal_tv(trajectory0, grid0, model))
    results.append(_check_equivalence(trajectory0, grid0, model, solver_config.lam))
    return _report(results)


def _report(results) -> int:
    failed = False
    for name, status, detail in results:
        print(f"{name:<20} {status:<5} {detail}")
        failed = failed or status == "FAIL"
    return 3 if failed else 0


def _check_steady_state(config, model, solver_config, grid, u_range):
    if not config.interfaces:
        return ("steady_state", "SKIP", "no interfaces to couple")
    c = 0.5 * (sum(data_range(config)))
    # outflow on both ends: this check exercises the interface coupling, and
    # an inflow trace unrelated to the adapted constants would mask it
    frozen = SolverConfig(lam=solver_config.lam, t_end=solver_config.t_end)
    try:
        datum = PiecewiseConstant(config.interfaces, _adapted_constants(model, c, u_range))
        trajectory = run(ProblemSpec((config.xmin, config.xmax), datum), grid, model, frozen)
    except DiscfluxError as exc:
        # the datum's own invariant range may chain past a law's image
        return ("steady_state", "SKIP", f"adapted-constant datum cannot run: {exc}")
    drift = float(np.max(np.abs(trajectory.final.u - cell_average(datum, grid))))
    status = "PASS" if drift <= 1e-11 else "FAIL"
    return ("steady_state", status, f"max drift {drift:.3e} over full run (limit 1e-11)")


def _check_monotonicity(config, model, solver_config, grid, u_range):
    worst = _ordering_gap(config, model, solver_config, grid, u_range)
    status = "PASS" if worst <= 1e-13 else "FAIL"
    return ("monotonicity", status,
            f"max ordering violation {worst:.3e} over 20 pairs x 100 steps (limit 1e-13)")


def _ordering_gap(config, model, solver_config, grid, u_range) -> float:
    """Largest low-minus-high gap of 20 random ordered pairs over 100 steps.

    Every pair's low and high members march as one stack on one plan,
    bracketed by the range the cfl line checked, so a violated cfl shows up
    as a gap, not as an error.  A NaN gap wins and stays, as in the entropy
    report.
    """
    rng = np.random.default_rng(0)
    lo, hi = data_range(config)
    drawn = lo + (hi - lo) * rng.random((20, 2, grid.n))
    state = np.empty((2, 20, grid.n))
    np.minimum(drawn[:, 0], drawn[:, 1], out=state[0])
    np.maximum(drawn[:, 0], drawn[:, 1], out=state[1])
    spare, gap = np.empty_like(state), np.empty((20, grid.n))
    march = _March(grid, model, solver_config, u_range, batch=state.shape[:-1])
    lam = solver_config.lam
    dt = lam * grid.dx
    # whole steps there and back, and the stack each step writes
    steps = ((march.bind(state, spare, lam), spare), (march.bind(spare, state, lam), state))
    worst, t = 0.0, 0.0
    for i in range(100):
        bound, new = steps[i % 2]
        march.advance(bound, t, dt)
        np.subtract(new[0], new[1], out=gap)
        t += dt
        value = float(np.max(gap))
        if _wins(value, worst):
            worst = value
    return worst


def _check_tvd(trajectory, grid):
    slices = grid.subdomain_slices()
    worst = -np.inf
    for before, after in zip(trajectory.levels, trajectory.levels[1:]):
        for i, sl in enumerate(slices):
            tv_before = spatial_tv(before, grid, i)
            tv_after = spatial_tv(after, grid, i)
            # the first cell of a subdomain is set by the boundary or the
            # interface map; its motion is the only admissible TV source
            allowance = abs(float(after.u[sl.start] - before.u[sl.start]))
            worst = max(worst, tv_after - tv_before - allowance)
    status = "PASS" if worst <= 1e-12 else "FAIL"
    return ("tvd", status,
            f"max per-subdomain TV excess {worst:.3e} (limit 1e-12)")


def _check_entropy(config, problem, model, solver_config, u_range):
    n = min(config.resolutions, key=lambda m: abs(m - 64))
    grid = build_grid(config.xmin, config.xmax, n, config.interfaces)
    trajectory = run(problem, grid, model, solver_config, retain_levels=True)
    # a constant whose adapted chain leaves a law's image has no entropy pair
    constants = [c for c in np.linspace(u_range[0], u_range[1], 17)
                 if _chains(model, c, u_range)]
    if not constants:
        return ("entropy_residual", "SKIP",
                "no constant's adapted chain stays inside every law's image")
    report = entropy_residual(trajectory, grid, model, constants)
    status = "PASS" if report.max_residual <= 1e-12 else "FAIL"
    cell, level, c = report.argmax
    kept = f"{len(constants)} of 17" if len(constants) < 17 else "17"
    return ("entropy_residual", status,
            f"max residual {report.max_residual:.3e} at cell {cell}, step {level}, "
            f"c={c:.6g} over {kept} constants at n={n} (limit 1e-12)")


def _chains(model, c, seed) -> bool:
    try:
        _adapted_constants(model, c, seed)
    except FluxRangeError:
        return False
    return True


def _check_temporal_tv(trajectory, grid, model):
    # Each cell's temporal variation S_j = sum_n |u_j^{n+1} - u_j^n| obeys an
    # exact local recursion: for a cell updated by the interior scheme whose
    # left neighbor is too, S_j <= |u_j^0 - u_{j-1}^0| + S_{j-1}; at an
    # interface cell the ghost map gives S_j (past the first step) a Lipschitz
    # factor max g' / min f' times the neighbor's variation.
    levels = trajectory.levels
    u0 = levels[0].u
    total = trajectory.temporal_increments
    tail = total - np.abs(levels[1].u - u0)

    lo = min(float(level.u.min()) for level in levels)
    hi = max(float(level.u.max()) for level in levels)
    worst = 0.0
    quotients = []
    for i, sl in enumerate(grid.subdomain_slices()):
        start = sl.start
        interior = np.arange(start + 2, sl.stop)
        if interior.size:
            bound = np.abs(u0[interior] - u0[interior - 1]) + total[interior - 1]
            worst = max(worst, float(np.max(total[interior] - bound)))
        if i > 0:
            left_lip = model.segments[i - 1].deriv_bounds(lo, hi)[1]
            own_alpha = model.segments[i].deriv_bounds(lo, hi)[0]
            quotient = left_lip / own_alpha
            quotients.append(quotient)
            worst = max(worst, float(tail[start] - quotient * tail[start - 1]))
    status = "PASS" if worst <= 1e-12 else "FAIL"
    quotient_text = ", ".join(f"{q:.3g}" for q in quotients) or "n/a"
    return ("temporal_tv", status,
            f"max recursion slack {worst:.3e} (limit 1e-12); "
            f"ghost Lipschitz quotients: {quotient_text}")


def _check_equivalence(trajectory, grid, model, lam):
    # the march takes every edge flux as upwind; on the edges inside each
    # subdomain of each marched level, another kind would move a cell by at
    # most 2 * lam * |F_kind - F_upwind| in that step
    kinds = _NUMERICAL_FLUXES
    worst = 0.0
    for level in trajectory.levels[:-1]:
        for seg, sl in zip(model.segments, grid.subdomain_slices()):
            left, right = level.u[sl][:-1], level.u[sl][1:]
            upwind = numerical_flux_value("upwind", seg, left, right)
            for kind in kinds[1:]:
                gap = np.abs(numerical_flux_value(kind, seg, left, right) - upwind)
                worst = max(worst, 2.0 * lam * float(np.max(gap, initial=0.0)))
    status = "PASS" if worst <= 1e-14 else "FAIL"
    return ("scheme_equivalence", status,
            f"max per-step deviation {worst:.3e} across {kinds} (limit 1e-14)")


# }}}


if __name__ == "__main__":
    sys.exit(main())
