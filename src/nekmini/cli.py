"""Command-line interface for the benchmark harness.

Subcommands:
    run              in situ benchmark (solver + bridge in one process)
    endpoint         in transit staging endpoint
    producer         in transit producer (one solver instance)
    bench            orchestrated in transit run (spawns endpoint + producers)
    weak-scale       weak scaling experiment over several producer counts
    validate-config  parse an analysis configuration and report problems
    report           aggregate timings CSVs into summary.csv + chart.svg

The solver flags are SolverParams' fields, each with the field's default;
values it rejects, a --dt past the diffusive limit included, are usage
errors. So are a --config that validate-config rejects, an --endpoint or
--listen that is not host:port with a port from 0 to 65535, and an --id
that a u32 does not hold.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import platform
import sys
from dataclasses import fields
from pathlib import Path

from nekmini import bridge as bridge_mod
from nekmini import harness, reporting, transport
from nekmini.sinks import positive_int
from nekmini.solver import SolverParams

log = logging.getLogger(__name__)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def keep_freed_heap():
    """Have glibc keep up to 256 MiB of freed heap, and serve requests below
    32 MiB (the most it allows) from it, so that a step's temporaries reuse
    pages the last step freed instead of faulting in fresh ones. Both are
    set: setting either one turns off glibc's dynamic mmap threshold."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in ((M_TRIM_THRESHOLD, 256 << 20), (M_MMAP_THRESHOLD, 32 << 20)):
        if not mallopt(param, value):
            log.warning("mallopt(%d, %d) failed; glibc's default stays", param, value)


def _add_solver_args(p: argparse.ArgumentParser):
    """One flag per SolverParams field; a field defaulting to None takes a float."""
    for f in fields(SolverParams):
        p.add_argument(f"--{f.name}", type=float if f.default is None else type(f.default),
                       default=f.default)
    p.set_defaults(parser=p)  # _run_config's usage errors print this subcommand's usage


def _run_config(args, **kw) -> harness.RunConfig:
    """The run's settings; a solver flag that SolverParams rejects is a usage error."""
    try:
        solver = SolverParams(**{f.name: getattr(args, f.name) for f in fields(SolverParams)})
    except ValueError as e:  # a grid below 4x4, a dt past the diffusive limit, ...
        args.parser.error(str(e))
    return harness.RunConfig(solver=solver, steps=args.steps, output_dir=Path(args.out),
                             label=args.label, **kw)


def analysis_config(path: str) -> str:
    """argparse type of --config: the path of a document validate-config accepts."""
    try:
        bridge_mod.load_config(path)
    except (OSError, bridge_mod.ConfigError) as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    return path


def address(text: str) -> str:
    """argparse type of producer --endpoint and endpoint --listen: a host:port
    that transport.parse_address accepts."""
    try:
        transport.parse_address(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    return text


def producer_id(text: str) -> int:
    """argparse type of producer --id: an integer the Hello's u32 holds."""
    n = int(text)
    if not 0 <= n < 1 << 32:
        raise argparse.ArgumentTypeError(f"must be an integer from 0 to {(1 << 32) - 1}, got {n}")
    return n


def counts(text: str) -> list[int]:
    """argparse type of weak-scale --producers: comma-separated integers >= 1."""
    return [positive_int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="nekmini", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="in situ benchmark run")
    _add_solver_args(p)
    p.add_argument("--config", type=analysis_config, help="analysis XML (default: no sinks)")
    p.add_argument("--steps", type=positive_int, default=3000)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="insitu")

    p = sub.add_parser("endpoint", help="in transit staging endpoint")
    p.add_argument("--config", type=analysis_config, help="analysis XML (default: no sinks)")
    p.add_argument("--listen", type=address, default="127.0.0.1:0")
    p.add_argument("--producers", type=positive_int, default=4)
    p.add_argument("--out", required=True, help="reports, and endpoint.addr once listening")
    p.add_argument("--label", default="intransit")

    p = sub.add_parser("producer", help="in transit producer")
    _add_solver_args(p)
    p.add_argument("--endpoint", type=address, required=True, help="host:port of the endpoint")
    p.add_argument("--id", type=producer_id, default=0)
    p.add_argument("--steps", type=positive_int, default=3000)
    p.add_argument("--frequency", type=positive_int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="intransit")

    p = sub.add_parser("bench", help="orchestrated in transit benchmark")
    _add_solver_args(p)
    p.add_argument("--config", type=analysis_config, help="analysis XML for the endpoint")
    p.add_argument("--producers", type=positive_int, default=4)
    p.add_argument("--steps", type=positive_int, default=3000)
    p.add_argument("--frequency", type=positive_int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="intransit")

    p = sub.add_parser("weak-scale", help="weak scaling experiment")
    _add_solver_args(p)
    p.add_argument("--config", type=analysis_config, help="analysis XML for the endpoint")
    p.add_argument("--producers", type=counts, default="1,2,4", help="comma-separated counts")
    p.add_argument("--steps", type=positive_int, default=500)
    p.add_argument("--frequency", type=positive_int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="weakscale")

    p = sub.add_parser("validate-config", help="check an analysis configuration")
    p.add_argument("config")

    p = sub.add_parser("report", help="aggregate timings CSVs")
    p.add_argument("dir")
    p.add_argument("--out", help="output directory (default: same as input)")

    return top


def main(argv: list[str] | None = None) -> int:
    keep_freed_heap()
    args = build_parser().parse_args(argv)

    if args.command == "run":
        out = harness.run_insitu(_run_config(args, bridge_config_path=args.config))
        print(f"in situ run complete: {out}")

    elif args.command == "endpoint":
        out = harness.run_endpoint(args.out, args.config, args.label, args.producers,
                                   listen=args.listen)
        print(f"endpoint finished: {out}")

    elif args.command == "producer":
        cfg = _run_config(args, bridge_config_path=None, frequency=args.frequency,
                          endpoint_address=args.endpoint, producer_id=args.id)
        out = harness.run_producer(cfg)
        print(f"producer {args.id} finished: {out}")

    elif args.command == "bench":
        cfg = _run_config(args, bridge_config_path=args.config,
                          producers=args.producers, frequency=args.frequency)
        out = harness.run_intransit(cfg)
        print(f"in transit benchmark complete: {out}")

    elif args.command == "weak-scale":
        cfg = _run_config(args, bridge_config_path=args.config,
                          frequency=args.frequency)
        out = harness.weak_scaling(cfg, args.producers)
        print(f"weak scaling table: {out / 'scaling.csv'}")

    elif args.command == "validate-config":
        try:
            specs = bridge_mod.load_config(args.config)
        except (OSError, bridge_mod.ConfigError) as e:
            print(f"invalid: {e}", file=sys.stderr)
            return 1
        for spec in specs:
            params = "".join(f" {k}={v}" for k, v in spec.params.items())
            print(f"analysis kind={spec.kind} frequency={spec.frequency}{params}")
        print(f"ok: {len(specs)} analysis spec(s)")

    elif args.command == "report":
        summary, chart = reporting.report(args.dir, args.out)
        print(f"wrote {summary}" + (f" and {chart}" if chart else ""))

    return 0


if __name__ == "__main__":
    sys.exit(main())
