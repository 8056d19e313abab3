"""Command line front end: figure presets, free-form sweeps, and checks.

Each subcommand's parser names its handler; main calls it and maps what it
raises to the exit code. Exit codes: 0 success, 2 configuration problem (any
ValueError, ConfigError included, or a closed form that overflows), 3 solver
failure, 4 failed correspondence check, 141 standard output closed by its
reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import cache

from .correlations import default_tau_grid, g2_tau
from .errors import ConfigError, NoInteriorExtremumError, SolverError
from .lindblad import default_step, liouvillian, steady_state
from .quantum_core import HilbertConfig, SystemParams
from .sweep import (
    OUTPUT_COLUMNS,
    Axis,
    SweepSpec,
    check_correspondence,
    evaluate,
    parse_sweep_config,
    read_sweep_csv,
    run_sweep,
    write_sweep_csv,
)

def fig1_spec(nmax: int = HilbertConfig.n_max, grid: int = 401) -> SweepSpec:
    """Detuning sweep at g = 1: kappa = gamma = 0.05 g, eta = 0.01 g."""
    base = SystemParams(g=1.0, kappa=0.05, gamma=0.05, eta=0.01, delta_a=0.0, delta=0.0)
    return SweepSpec(
        base=base,
        axis1=Axis("Delta", -2.0, 2.0, grid),
        hilbert=HilbertConfig(nmax),
    )


def fig2_params() -> SystemParams:
    """Delayed-correlation point at kappa = 1: gamma = kappa, g = 20, Delta = -20.

    The preset pins everything except the drive amplitude; 0.1 kappa keeps
    the mean photon number small and g2 is drive-independent at this order
    anyway.
    """
    return SystemParams(g=20.0, kappa=1.0, gamma=1.0, eta=0.1, delta_a=-20.0, delta=-20.0)


def fig3_spec(nmax: int = HilbertConfig.n_max, grid: int = 101) -> SweepSpec:
    """Coupling vs detuning map at kappa = 1: gamma = 0.5, eta = 0.1."""
    base = SystemParams(g=1.0, kappa=1.0, gamma=0.5, eta=0.1, delta_a=0.0, delta=0.0)
    return SweepSpec(
        base=base,
        axis1=Axis("g", 5.0, 30.0, grid),
        axis2=Axis("Delta", -40.0, 40.0, grid),
        hilbert=HilbertConfig(nmax),
    )


def fig4_spec(nmax: int = HilbertConfig.n_max, grid: int = 101) -> SweepSpec:
    """Detuning vs cavity decay map at g = 1: gamma = 0.01, eta = 0.001."""
    base = SystemParams(g=1.0, kappa=0.01, gamma=0.01, eta=0.001, delta_a=0.0, delta=0.0)
    return SweepSpec(
        base=base,
        axis1=Axis("Delta", -2.0, 2.0, grid),
        axis2=Axis("kappa", 0.01, 0.5, grid),
        hilbert=HilbertConfig(nmax),
    )


@contextmanager
def _out_stream(path: str | None):
    if path is not None:
        with open(path, "w", newline="\n") as stream:
            yield stream
        return
    yield sys.stdout
    # A reader that closed early shows here, inside main, and not in the
    # interpreter's flush at exit.
    sys.stdout.flush()


def _write_curve_csv(curve, stream) -> None:
    rows = zip(map(repr, curve.tau.tolist()), map(repr, curve.values.tolist()))
    stream.write("tau,g2_tau,status\n" + "".join(f"{tau},{value},ok\n" for tau, value in rows))


def _cmd_figure_sweep(spec: SweepSpec, out: str | None) -> int:
    result = run_sweep(spec)
    with _out_stream(out) as stream:
        write_sweep_csv(result, stream)
    return 0


def _cmd_preset(args) -> int:
    return _cmd_figure_sweep(args.spec(args.nmax, args.grid), args.out)


def _cmd_fig2(args) -> int:
    params = fig2_params()
    h = HilbertConfig(args.nmax)
    liou = liouvillian(params, h)
    rho = steady_state(liou)
    grid = default_tau_grid(params, args.grid)
    curve = g2_tau(rho, liou, h, grid, default_step(params))
    with _out_stream(args.out) as stream:
        _write_curve_csv(curve, stream)
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    spec = parse_sweep_config(text)
    if args.nmax is not None:
        spec = replace(spec, hilbert=HilbertConfig(args.nmax))
    return _cmd_figure_sweep(spec, args.out)


def _cmd_point(args) -> int:
    delta_a = args.delta_cavity if args.delta_cavity is not None else args.delta
    delta = args.delta_atom if args.delta_atom is not None else args.delta
    params = SystemParams(g=args.g, kappa=args.kappa, gamma=args.gamma,
                          eta=args.eta, delta_a=delta_a, delta=delta)
    # The sweep's kernel and first failure on one row: those of the matching sweep row.
    values, failed = evaluate(params.row(), HilbertConfig(args.nmax), OUTPUT_COLUMNS)
    if failed:
        raise failed[0]
    lines = [f"{name} = {float(values[name][0])!r}" for name in OUTPUT_COLUMNS]
    with _out_stream(args.out) as stream:
        stream.write("\n".join(lines) + "\n")
    return 0


def _cmd_check(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as f:
            result = read_sweep_csv(f)
    except OSError as exc:
        raise ConfigError(f"cannot read sweep file: {exc}") from exc
    report = check_correspondence(result, gap_threshold=args.gap_threshold)
    with _out_stream(args.out) as stream:
        stream.write("\n".join(report.format_lines()) + "\n")
    return 0 if report.passed else 4


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="blockade-lab",
        description="Photon statistics and atomic coherence of a driven atom-cavity system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext, grid, spec in (
        ("fig1", "detuning sweep, both branches", 401, fig1_spec),
        ("fig2", "delayed correlation curve", 200, None),
        ("fig3", "coupling vs detuning map", 101, fig3_spec),
        ("fig4", "detuning vs cavity-decay map", 101, fig4_spec),
    ):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=_cmd_fig2 if spec is None else _cmd_preset, spec=spec)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--nmax", type=int, default=HilbertConfig.n_max,
                       help="cavity photon cutoff (default %(default)s)")
        p.add_argument("--grid", type=int, default=grid,
                       help=f"grid points per axis (default {grid})")

    p = sub.add_parser("sweep", help="run a sweep from a config file")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out", default=None)
    p.add_argument("--nmax", type=int, default=None, help="override the config cutoff")

    p = sub.add_parser("point", help="evaluate one parameter point, both branches")
    p.set_defaults(run=_cmd_point)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0,
                   help="sets both detunings unless overridden")
    p.add_argument("--delta-cavity", type=float, default=None, dest="delta_cavity")
    p.add_argument("--delta-atom", type=float, default=None, dest="delta_atom")
    p.add_argument("--nmax", type=int, default=HilbertConfig.n_max)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="correspondence check on a sweep CSV")
    p.set_defaults(run=_cmd_check)
    p.add_argument("file", help="CSV produced by fig1 or sweep")
    p.add_argument("--gap-threshold", type=float, default=1.0)
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        # `blockade-lab fig1 | head -1`: end quietly, with the status of a
        # process killed by SIGPIPE. No SIGPIPE handler is installed, since
        # main also runs inside other programs. What is left in the buffer of
        # stdout goes to devnull, so the interpreter's flush at exit is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OverflowError, OSError) as exc:
        # ConfigError is a ValueError, and so is every rejection of an
        # out-of-range input by the library (n_max, grid size, an empty
        # cavity). A closed form beyond double precision is out of range too.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NoInteriorExtremumError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
