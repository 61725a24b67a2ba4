"""Command-line interface.

Subcommands: evolve, couplings, scan, verify. Exit codes: 0 success,
1 validation/config error, 2 numerical failure, 3 verify failures.
"""
import argparse
import sys

from . import verify as verify_mod
from .couplings import collective_decay, coupling_strength
from .errors import ScenarioError
from .scenario import load_geometry, load_scenario, run_scenario


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; map those to the
    # validation-error exit code instead
    def error(self, message):
        raise ScenarioError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecsim",
                     description="Correlation dynamics of two dipole-coupled, "
                                 "optically driven quantum emitters.")
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="propagate one scenario, emit CSV")
    evolve.add_argument("scenario", help="scenario file")
    evolve.add_argument("-o", "--output", help="output CSV path (default stdout)")

    coup = sub.add_parser("couplings", help="print V, gamma for a geometry file")
    coup.add_argument("geometry", help="geometry file (geometry.* keys)")

    scan = sub.add_parser("scan", help="run the scenario's scan axis, emit CSV")
    scan.add_argument("scenario", help="scenario file with a scan.* section")
    scan.add_argument("-o", "--output", help="output CSV path (default stdout)")

    ver = sub.add_parser("verify", help="run the acceptance checks")
    ver.add_argument("--filter", default="",
                     help="run only checks whose name contains this substring")
    return parser


def _emit(table, output):
    text = table.to_csv()
    if output:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    """evolve or scan: a scan section is required by scan, refused by evolve."""
    scenario = load_scenario(args.scenario)
    has_scan = scenario.scan is not None
    if has_scan != (args.command == "scan"):
        raise ScenarioError("scenario has a scan section; use `ecsim scan`" if has_scan
                            else "scenario has no scan section; use `ecsim evolve`")
    _emit(run_scenario(scenario), args.output)
    return 0


def _cmd_couplings(args) -> int:
    geometry = load_geometry(args.geometry)
    print(f"V      = {coupling_strength(geometry):.12g}  (units of Gamma)")
    print(f"gamma  = {collective_decay(geometry):.12g}  (units of Gamma)")
    print(f"z      = {geometry.z:.12g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("evolve", "scan"):
            return _cmd_run(args)
        if args.command == "couplings":
            return _cmd_couplings(args)
        if args.command == "verify":
            return 0 if verify_mod.run_all(args.filter) else 3
        parser.error(f"unknown command {args.command!r}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
