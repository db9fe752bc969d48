"""Command-line entry point: build a manifold and run identity suites."""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ExpressionError, GeometryError, InputError
from .suite import SUITES, run_suite
from .zoo import KINDS, ManifoldSpec


def _parse_tol_overrides(pairs):
    overrides = {}
    for pair in pairs or ():
        key, _, value = pair.partition("=")
        try:
            overrides[key.strip()] = float(value)
        except ValueError:
            raise InputError(f"--tol-override expects id=number, got {pair!r}") from None
    return overrides


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qkt`` parser, built once per process: parsing keeps no state in
    it (the ``append`` action copies its default for every parse)."""
    parser = argparse.ArgumentParser(
        prog="qkt",
        description="Verify torsion-connection identities on example manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an identity suite")
    verify.add_argument("--manifold", required=True, choices=KINDS)
    verify.add_argument("--n", type=int, required=True,
                        help="quaternionic dimension (real dimension 4n)")
    verify.add_argument("--f", default=None,
                        help="conformal factor expression, e.g. 'exp(x1)'")
    verify.add_argument("--t", default=None,
                        help="comma-separated torsion 1-form components (dim 4)")
    verify.add_argument("--points", type=int, default=20)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--h", type=float, default=1e-4)
    verify.add_argument("--h2", type=float, default=1e-3)
    verify.add_argument("--suite", default="all", choices=SUITES)
    verify.add_argument("--report", default=None,
                        help="write the JSON report to this path")
    verify.add_argument("--tol-override", action="append", metavar="ID=VALUE",
                        help="override one identity tolerance (repeatable)")
    verify.add_argument("--j2-tilt", type=float, default=0.0,
                        help="degrees to rotate J2 away from compatibility (negative "
                             "control; a tilt that is not a whole number of turns must fail)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    t_components = None
    if args.t is not None:
        t_components = tuple(part.strip() for part in args.t.split(","))

    try:
        spec = ManifoldSpec(
            kind=args.manifold,
            n=args.n,
            f=args.f,
            t_components=t_components,
            seed=args.seed,
            point_count=args.points,
            h=args.h,
            h2=args.h2,
            tol_overrides=_parse_tol_overrides(args.tol_override),
            j2_tilt_degrees=args.j2_tilt,
        )
        report = run_suite(spec, suite=args.suite)
    except (ExpressionError, GeometryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    for line in report.summary_lines():
        print(line)
    failed = [r for r in report.results if not r.passed]
    build_error = report.meta.get("build_error")
    if build_error:
        print(f"build failed: {build_error}")
    print(f"{len(report.results) - len(failed)}/{len(report.results)} identities pass")

    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
        except OSError as err:
            print(f"error: cannot write the report: {err}", file=sys.stderr)
            return 2
        print(f"report written to {args.report}")

    return 0 if (report.all_pass and not build_error and report.results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
