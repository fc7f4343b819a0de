"""Child processes of the benchmark; run.py starts them, one at a time.

    python3 perfbench/child.py setup WORKLOAD SEED
        Import leafmult and build the workload's contexts and inputs in this
        fresh interpreter; print the seconds that took.

    python3 perfbench/child.py cli TOTALS_JSON -- CLI ARGS...
        Run one leafmult command under the outside tracer and write the
        per-layer totals and import times to TOTALS_JSON.  Exits with the
        command's exit code.
"""

import time

# set-up time counts from here, before anything of leafmult is imported
T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def setup(workload: str, seed: int) -> int:
    import leafmult  # noqa: F401
    from leafmult.manifest import ProblemManifest

    if workload == "cli-cold":
        for name in workloads.MANIFESTS:
            ProblemManifest.load(Path("manifests") / f"{name}.json").context()
    else:
        for case in workloads.in_process_cases(workload, seed):
            workloads.context(case.leaf)
            workloads.polynomials(case)
    print(repr(time.perf_counter() - T0))
    return 0


def traced_cli(totals_path: str, argv: list) -> int:
    import tracer as tr

    t0 = time.perf_counter()
    import sympy  # noqa: F401
    t1 = time.perf_counter()
    import leafmult.cli
    t2 = time.perf_counter()
    tracer = tr.Tracer()
    tracer.install()
    tracer.begin_case()
    code = leafmult.cli.main(argv)
    tracer.end_case(True)
    tracer.uninstall()
    tracer.merge({"counts": {"pairs.retries": _retries(argv) if code == 0 else 0}})
    with open(totals_path, "w") as out:
        json.dump(dict(tracer.totals, import_sympy_s=t1 - t0, import_leafmult_s=t2 - t0,
                       span_rows=tracer.span_rows()), out)
    return code


def _retries(argv: list) -> int:
    """1 when a bound's final jet order exceeds the order it started from."""
    if argv[0] != "bound":
        return 0
    from leafmult.manifest import ProblemManifest
    manifest = ProblemManifest.load(argv[argv.index("--manifest") + 1])
    with open(argv[argv.index("--trace") + 1]) as fh:
        final = json.load(fh)["report"]["jet_order"]
    start = manifest.pipeline_options().jet_order \
        or manifest.context().default_jet_order(manifest.f, manifest.g)
    return int(final > start)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], int(sys.argv[3])))
    if mode == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[4:]))
    sys.exit(f"unknown mode {mode!r}")
