"""Command-line entry point.

Subcommands: check (hypothesis diagnostics), bound (the multiplicity
pipeline with a JSON trace), verify (randomized lemma suites or offline
trace re-verification), appendix (on-leaf witness construction).

Exit codes: 0 success, 1 parse error (a malformed manifest, trace or
command line), 2 hypothesis failure, 3 budget or partial result, 4 internal
certificate failure.

Each handler imports the layers it runs, so a cold command compiles only
those; `germs` loads the series and Puiseux layers only for a germ that
needs them, and no layer imports `dataclasses`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceededError,
    CertificateError,
    HypothesisError,
    InconclusiveError,
    ParseError,
)
from .manifest import ProblemManifest, load_trace, write_trace

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_CERTIFICATE = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit with EXIT_PARSE."""

    def error(self, message):
        raise ParseError(message)


def _non_negative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leafmult",
        description="certified multiplicity bounds on leaves of polynomial foliations")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify the manifest hypotheses")
    check.add_argument("--manifest", required=True)

    bound = sub.add_parser("bound", help="run the multiplicity-bound pipeline")
    bound.add_argument("--manifest", required=True)
    bound.add_argument("--seed", type=int, default=None)
    bound.add_argument("--jet-order", type=_non_negative, default=None)
    bound.add_argument("--budget", type=_non_negative, default=None)
    bound.add_argument("--trace", default=None)

    verify = sub.add_parser("verify", help="randomized lemma suites or trace re-check")
    verify.add_argument("--suite", default=None,
                        help="suite name, or 'all' (default)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--count", type=_non_negative, default=100)
    verify.add_argument("--from-trace", dest="from_trace", default=None)

    appendix = sub.add_parser("appendix", help="construct and check the on-leaf witness")
    appendix.add_argument("--manifest", required=True)
    appendix.add_argument("--jet-order", type=_non_negative, default=None)
    appendix.add_argument("--trace", default=None)

    return parser


def cmd_check(args) -> int:
    from .foliation import check_commute, VectorField
    manifest = ProblemManifest.load(args.manifest)
    v1 = VectorField(manifest.variables, manifest.v1)
    v2 = VectorField(manifest.variables, manifest.v2)
    report = check_commute(v1, v2)
    if not report.commute:
        print(f"FAIL commutation: bracket component {report.witness_index} "
              f"= {report.witness}")
        return EXIT_HYPOTHESIS
    print("OK commutation: all bracket components vanish")
    try:
        manifest.context()
    except HypothesisError as e:
        print(f"FAIL base point: {e}")
        return EXIT_HYPOTHESIS
    print(f"OK base point: fields independent at ({', '.join(map(str, manifest.point))})")
    return EXIT_OK


def cmd_bound(args) -> int:
    from .ideals import Budget
    from .pairs import nonisolated_bound
    manifest = ProblemManifest.load(args.manifest)
    if manifest.f is None or manifest.g is None:
        raise ParseError("bound requires polynomials f and g in the manifest")
    ctx = manifest.context()
    options = manifest.pipeline_options(seed=args.seed, jet_order=args.jet_order)
    budget = None
    cap = args.budget if args.budget is not None else manifest.options.get("budget")
    if cap is not None:
        budget = Budget(cap=cap)
    report = nonisolated_bound(manifest.f, manifest.g, ctx, options, budget)
    data = report.describe()
    trace_path = args.trace or manifest.options.get("trace")
    if trace_path:
        write_trace(trace_path, manifest, data)
        print(f"trace written to {trace_path}")
    status = report.ledger.status
    print(f"status: {status}")
    if report.direct_value is not None:
        print(f"direct local multiplicity: {report.direct_value}")
    if report.bound is not None:
        print(f"certified upper bound: {report.bound}")
    for i, step in enumerate(report.ledger.steps):
        a, b = step.transfer
        print(f"  step {i}: {step.kind:<9} transfer m -> {a}*m + {b}")
    return EXIT_OK if status == "point-excluded" else EXIT_BUDGET


def cmd_verify(args) -> int:
    from .verify import run_all_suites, run_suite, verify_trace
    if args.from_trace:
        trace = load_trace(args.from_trace)
        checks = verify_trace(trace)
        bad = [c for c in checks if not c.ok]
        for c in checks:
            mark = "PASS" if c.ok else "FAIL"
            detail = f" ({c.detail})" if c.detail else ""
            print(f"{mark} step {c.step} [{c.kind}]{detail}")
        return EXIT_OK if not bad else EXIT_CERTIFICATE
    if args.suite in (None, "all"):
        reports = run_all_suites(args.seed, args.count)
    else:
        reports = [run_suite(args.suite, args.seed, args.count)]
    failed = False
    for rep in reports:
        mark = "PASS" if rep.passed() else "FAIL"
        print(f"{mark} {rep.suite}: {rep.cases} cases, "
              f"{len(rep.violations)} violations")
        for v in rep.violations:
            failed = True
            print(f"  violation: {json.dumps(v, default=str)}")
    return EXIT_OK if not failed else EXIT_CERTIFICATE


def cmd_appendix(args) -> int:
    from .extension import WITNESS_JET_ORDER, construct_witness
    manifest = ProblemManifest.load(args.manifest)
    if manifest.f is None or not manifest.ideal_generators:
        raise ParseError("appendix requires f and a nonempty ideal in the manifest")
    ctx = manifest.context()
    order = args.jet_order if args.jet_order is not None \
        else manifest.options.get("jet_order", WITNESS_JET_ORDER)
    witness = construct_witness(manifest.f, manifest.ideal(), ctx, order=order)
    data = witness.describe()
    trace_path = args.trace or manifest.options.get("trace")
    if trace_path:
        write_trace(trace_path, manifest, data)
        print(f"trace written to {trace_path}")
    print(f"witness H = {data['H']}")
    print(f"mu = {data['mu']}, subsets = {data['subset_count']} <= {2 ** data['mu']}")
    print(f"divisibility checked: {data['divisibility_checked']}")
    print(f"vanishing checked: {data['vanishing_checked']}")
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {"check": cmd_check, "bound": cmd_bound,
                "verify": cmd_verify, "appendix": cmd_appendix}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisError as e:
        print(f"hypothesis failure: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (BudgetExceededError, InconclusiveError) as e:
        print(f"budget/partial: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificateError as e:
        print(f"internal certificate failure: {e}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
