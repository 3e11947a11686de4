"""Command line interface.

    freeconvex run PROBLEM.json [--tol T] [--max-iter N] [--mode M]
                                [--format json|text] [--out FILE]
    freeconvex emit-corpus DIRECTORY

Exit codes: 0 decided, 2 marginal, 3 solver error, 4 input error.
"""

from __future__ import annotations

import argparse
import sys

from .io import ParseError, emit_corpus, parse_problem, run, ProblemFile


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freeconvex",
        description="Decision procedures for free spectrahedra, cp "
                    "interpolation, tracial hulls, and positivity "
                    "certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="solve a problem file")
    runp.add_argument("problem", help="path to a problem JSON file, - for stdin")
    runp.add_argument("--tol", type=float, default=None,
                      help="solver tolerance (default 1e-8)")
    runp.add_argument("--max-iter", type=int, default=None,
                      help="iteration cap (default 200)")
    runp.add_argument("--mode", default=None,
                      help="interpolation mode of the interpolate kind, one "
                           "of five: cp|unital|subunital|channel|operation")
    runp.add_argument("--format", choices=("json", "text"), default="json")
    runp.add_argument("--out", default=None, help="write the report here "
                      "instead of stdout")

    emitp = sub.add_parser("emit-corpus",
                           help="write the worked-example problem files")
    emitp.add_argument("directory")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "emit-corpus":
        names = emit_corpus(args.directory)
        for name in names:
            print(name)
        return 0

    try:
        if args.problem == "-":
            data = sys.stdin.read()
        else:
            with open(args.problem, "rb") as fh:
                data = fh.read()
        pf = parse_problem(data)
        options = dict(pf.options)
        if args.tol is not None:
            options["tol"] = args.tol
        if args.max_iter is not None:
            options["max_iter"] = args.max_iter
        if args.mode is not None:
            options["mode"] = args.mode
        pf = ProblemFile(pf.kind, pf.payload, options, pf.version)
    except (OSError, ParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4

    try:
        report = run(pf)
    except ValueError as exc:            # ParseError included
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        # a solve the answer depends on failed (sdp.SolverError), e.g. one
        # of is_bounded's recession solves
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
