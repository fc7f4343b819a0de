"""leafmult benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run the three one after
the other, each in its own interpreter.

Run from the root of a leafmult source tree; leafmult is imported from
``src/`` and the CLI reads ``manifests/``.  Workloads:

  exact-leaf           in-process nonisolated_bound on the flat-leaf catalog
                       cases plus a seeded draw of h*f, h*g
  transcendental-leaf  the same on the exponential leaf
  cli-cold             one cold child process per leafmult command

Load shape: closed loop, one client, one case at a time (cli-cold: one
child process at a time).  Every run is a fresh interpreter; every case
gets a fresh FoliationContext and a cold Groebner cache.  A case past
DEADLINE_S is aborted and counts as failed.

With ``--trace 0`` the run repeats passes over its inputs for S seconds
and prints the end-to-end metrics, every time stated at the reference
speed (see ``reference``).  With ``--trace 1`` it alternates untraced and
traced passes, two of each, and prints the per-layer metrics of the first
traced pass.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact-leaf", "transcendental-leaf", "cli-cold")
SETUP_PROBES = 5
TRACED_PASSES = 2
TAIL_PERCENTILES = (90, 75, 50)
# The reference task: REF_TERMS terms of a Fraction sum, the exact
# arithmetic leafmult spends its time on.  REF_S is its time at full speed
# on the host the benchmark was defined on (2 vCPU, CPython 3.11).
REF_TERMS = 2000
REF_S = 0.009
# The cold reference: a fresh interpreter importing a fixed set of standard
# modules, the same kind of work as a cold leafmult command; REF_CHILD_S is
# its fastest time on that host.
REF_CHILD = ("import asyncio, email.parser, http.client, json, sqlite3, unittest, "
             "xml.dom.minidom")
REF_CHILD_S = 0.12


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Deadline(BaseException):
    """Raised in the case by SIGALRM; BaseException so no handler in the
    program can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def reference() -> float:
    """Seconds the reference task takes now.

    On a shared host the same fixed work takes up to twice as long for
    seconds to minutes at a time, and an in-process case slows with it.
    Timed just before every in-process case, the reference task gives the
    host's speed at that moment, and ``seconds * REF_S / reference()`` is
    the case's time at full speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REF_TERMS + 1):
        total += Fraction(1, i % 97 + 1) * Fraction(i, 7)
    return time.perf_counter() - start


def reference_child() -> float:
    """Seconds the cold reference takes now: a cold CLI child slows with
    the host as the cold reference does, not as the in-process one does."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_CHILD], check=True)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


class Tally:
    """Per-case outcomes of a run; ref_s is the reference's fastest time."""

    def __init__(self, ref_s: float):
        self.ref_s = ref_s
        self.samples = []       # (seconds consumed, ok)
        self.scaled = []        # seconds consumed at the reference speed
        self.refs = []          # seconds of the reference task before the case
        self.names = []         # case name of each sample
        self.problems = {}      # case name -> first problem seen
        self.wrong = 0          # results that were produced but are not right

    def add(self, name: str, seconds: float, problem, wrong: bool = False,
            ref=None, cut: bool = False) -> float:
        """Record one case; return its seconds at the reference speed.  A
        case cut by the wall-clock deadline keeps its wall time, and so does
        every case of a traced run, which has no reference (ref None)."""
        scaled = seconds if cut or ref is None else seconds * self.ref_s / ref
        self.samples.append((seconds, problem is None))
        self.scaled.append(scaled)
        self.refs.append(ref)
        self.names.append(name)
        if problem is not None:
            self.problems.setdefault(name, problem)
        self.wrong += wrong
        return scaled

    def end_to_end(self, pass_times: list, setup: list, rss_mb: float) -> dict:
        # a failure misses every latency limit: it ranks after all successes,
        # at the deadline plus the time it consumed
        ranked = sorted(t if ok else wl.DEADLINE_S + t
                        for t, (_, ok) in zip(self.scaled, self.samples))
        pct, value = tail(ranked)
        ok = sum(1 for _, good in self.samples if good)
        print(f"case_ms_tail is p{pct} of {len(ranked)} samples; "
              f"{len(ranked) - math.ceil(pct / 100 * len(ranked))} lie beyond it; "
              f"a failed case counts as {wl.DEADLINE_S:g} s plus the time it consumed")
        refs = [r for r in self.refs if r is not None]
        print(f"times are at the reference speed ({1000 * self.ref_s:g} ms per reference "
              f"task); the reference task took {1000 * statistics.median(refs):.2f} ms "
              f"(median), {1000 * min(refs):.2f} ms (fastest) in this run; wall-clock "
              f"case median {1000 * statistics.median(s for s, _ in self.samples):.2f} ms")
        print(f"set-up is at the cold reference speed ({1000 * REF_CHILD_S:g} ms per cold "
              f"reference); wall-clock set-up median {statistics.median(s for s, _ in setup):.4f} s")
        return {
            "setup_s": (statistics.median(s * REF_CHILD_S / ref for s, ref in setup), "s"),
            "pass_s": (statistics.median(pass_times), "s"),
            "case_ms_p50": (1000 * statistics.median(ranked), "ms"),
            "case_ms_tail": (1000 * value, "ms"),
            "ok_share": (ok / len(self.samples), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }


def tail(ranked: list):
    """Highest listed percentile with at least ten samples beyond it (nearest
    rank); below twenty samples none has, and the slowest sample is p100."""
    n = len(ranked)
    pct = next((p for p in TAIL_PERCENTILES if n - math.ceil(p / 100 * n) >= 10), 100)
    return pct, ranked[math.ceil(pct / 100 * n) - 1]


def repeat_passes(one_pass, seconds: int) -> list:
    """Run passes while the next, if as long as the last, ends within
    `seconds`; at least one.  Returns what each pass returned."""
    begin = time.perf_counter()
    results = []
    while True:
        start = time.perf_counter()
        results.append(one_pass())
        end = time.perf_counter()
        if end - begin + (end - start) > seconds:
            return results


def checked_report(case: wl.Case, report):
    """(problem, wrong) for one in-process result; problem None when right."""
    status = report.ledger.status
    if status != "point-excluded":
        return f"status {status}", False
    direct, bound = report.direct_value, report.bound
    if direct != case.direct:
        return f"direct value {direct}, known {case.direct}", True
    if bound is None or direct > bound:
        return f"bound {bound} below direct value {direct}", True
    if case.bound is not None:
        steps = tuple((s.kind, s.transfer[0], s.transfer[1]) for s in report.ledger.steps)
        if bound != case.bound or steps != case.steps:
            return f"bound {bound} steps {steps}, pinned {case.bound} {case.steps}", True
    return None, False


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def run_in_process(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    t0 = time.perf_counter()
    import sympy  # noqa: F401
    t1 = time.perf_counter()
    import leafmult.ideals as ideals
    import leafmult.pairs as pairs
    t2 = time.perf_counter()

    cases = [(c, *wl.polynomials(c)) for c in wl.in_process_cases(workload, seed)]
    tally = Tally(REF_S)
    signal.signal(signal.SIGALRM, _on_alarm)

    def one_pass(tracer=None) -> float:
        total = 0.0
        for case, F, G in cases:
            # traced runs compare raw pass times, so they take no reference
            ref = None if traced else reference()
            ctx = wl.context(case.leaf)
            ideals._GB_CACHE.clear()
            if tracer:
                tracer.begin_case()
            report, problem, wrong, cut = None, None, False, False
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, wl.DEADLINE_S)
                try:
                    report = pairs.nonisolated_bound(F, G, ctx)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                cut = True
                problem = f"missed the {wl.DEADLINE_S:g} s deadline"
            except Exception as e:  # every failure of the program counts
                problem = f"raised {type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end_case(completed=not cut)
                if report is not None and \
                        report.trace["jet_order"] > ctx.default_jet_order(F, G):
                    tracer.merge({"counts": {"pairs.retries": 1}})
            if report is not None:
                problem, wrong = checked_report(case, report)
            scaled = tally.add(case.name, elapsed, problem, wrong, ref, cut)
            total += min(scaled, wl.DEADLINE_S)
        return total

    if not traced:
        pass_times = repeat_passes(one_pass, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"tally": tally, "passes": pass_times, "rss_mb": rss}

    tracer = tr.Tracer()
    passes, untraced = [], []
    for i in range(TRACED_PASSES):
        untraced.append(one_pass())
        tracer.install()
        tracer.reset_totals()
        seconds_traced = one_pass(tracer)
        tracer.uninstall()
        passes.append((seconds_traced, tr.layer_metrics(tracer.totals),
                       tracer.cases_excluded))
    tr.dump_spans(HERE / "out" / f"spans-{workload}-{seed}.jsonl.gz", tracer.span_rows())
    return {"tally": tally, "untraced": untraced, "traced": passes,
            "import": (t2 - t0, t1 - t0)}


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def run_child(argv: list, env: dict, log: Path):
    """Run one child to its end or the deadline; (seconds, exit code,
    stdout, peak RSS in MB)."""
    with open(log, "w+") as out, open(log.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(wl.DEADLINE_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return elapsed, proc.returncode, out.read(), usage.ru_maxrss / 1024


def run_cli(seed: int, seconds: int, traced: bool, env: dict) -> dict:
    work = HERE / "out" / f"cli-{os.getpid()}"
    manifests = work / "manifests"
    manifests.mkdir(parents=True)
    for name in wl.MANIFESTS:
        shutil.copy(Path("manifests") / f"{name}.json", manifests / f"{name}.json")
    commands = wl.cli_commands(seed)
    tally = Tally(REF_CHILD_S)
    peak_mb = 0.0
    program = "import sys; from leafmult.cli import main; sys.exit(main())"

    def one_pass(totals=None) -> float:
        nonlocal peak_mb
        total = 0.0
        for index, cmd in enumerate(commands):
            args = wl.cli_argv(cmd, str(manifests), str(work))
            if totals is None:
                argv = [sys.executable, "-c", program] + args
            else:
                part = work / f"totals-{index}.json"
                argv = [sys.executable, str(HERE / "child.py"), "cli", str(part), "--"] + args
            ref = None if traced else reference_child()
            elapsed, code, stdout, rss = run_child(argv, env, work / f"out-{index}.txt")
            peak_mb = max(peak_mb, rss)
            wrong = False
            cut = elapsed >= wl.DEADLINE_S and code < 0
            if cut:
                problem = f"missed the {wl.DEADLINE_S:g} s deadline"
            else:
                problem = wl.check_cli_output(cmd, code, stdout)
                wrong = problem is not None and code == 0
            if totals is not None and problem is None:
                totals.append((index, json.loads(part.read_text())))
            scaled = tally.add(f"{cmd.kind} {cmd.manifest}", elapsed, problem, wrong, ref, cut)
            total += min(scaled, wl.DEADLINE_S)
        return total

    try:
        if not traced:
            pass_times = repeat_passes(one_pass, seconds)
            return {"tally": tally, "passes": pass_times, "rss_mb": peak_mb}
        passes, untraced, imports, rows = [], [], [], []
        for i in range(TRACED_PASSES):
            untraced.append(one_pass())
            totals = []
            seconds_traced = one_pass(totals)
            merged = tr.Tracer()
            for index, part in totals:
                merged.merge(part)
                if i == 0:
                    imports.append((part["import_leafmult_s"], part["import_sympy_s"]))
                # one file for all children: shift parent indices, number cases
                # by command across passes
                base, case = len(rows), i * len(commands) + index
                rows.extend([name, start, end, parent + base if parent >= 0 else -1, case]
                            for name, start, end, parent, _ in part["span_rows"])
            excluded = len(commands) - len(totals)
            passes.append((seconds_traced, tr.layer_metrics(merged.totals), excluded))
        tr.dump_spans(HERE / "out" / f"spans-cli-cold-{seed}.jsonl.gz", rows)
        return {"tally": tally, "untraced": untraced, "traced": passes,
                "import": (statistics.median(i[0] for i in imports),
                           statistics.median(i[1] for i in imports))}
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def setup_times(workload: str, seed: int, env: dict) -> list:
    """Seconds for a fresh interpreter to import leafmult and build the inputs,
    each with the seconds of the cold reference run just before it."""
    times = []
    for _ in range(SETUP_PROBES):
        ref = reference_child()
        done = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload,
                               str(seed)], env=env, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise BenchError(f"setup probe failed:\n{done.stderr}")
        times.append((float(done.stdout.split()[-1]), ref))
    return times


def source_tree() -> dict:
    """Environment that makes children import leafmult from ./src."""
    src = Path.cwd() / "src"
    if not (src / "leafmult" / "__init__.py").is_file():
        raise BenchError("no leafmult source here: run from the root of a leafmult "
                         "checkout (src/leafmult is missing)")
    if not (Path.cwd() / "manifests").is_dir():
        raise BenchError("no manifests/ directory in the current directory")
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("leafmult")
    if Path(spec.origin).resolve().parent != (src / "leafmult").resolve():
        raise BenchError(f"leafmult resolves to {spec.origin}, not to {src}")
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # each workload in its own fresh interpreter, one after the other
        codes = []
        for workload in WORKLOADS:
            print(f"== {workload}", flush=True)
            codes.append(subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode)
        return max(codes)
    try:
        env = source_tree()
        (HERE / "out").mkdir(exist_ok=True)
        if args.workload == "cli-cold":
            result = run_cli(args.seed, args.seconds, bool(args.trace), env)
        else:
            result = run_in_process(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
        setup = None if args.trace else setup_times(args.workload, args.seed, env)
    except BenchError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    tally = result["tally"]
    for name, problem in sorted(tally.problems.items()):
        print(f"FAILED {name}: {problem}")
    if args.trace:
        metrics = traced_metrics(result)
    else:
        metrics = tally.end_to_end(result["passes"], setup, result["rss_mb"])
        with open(HERE / "out" / f"samples-{args.workload}-{args.seed}.json", "w") as out:
            json.dump({"passes_s": result["passes"], "setup_s": setup,
                       "cases": [[name, seconds, ok, ref] for name, (seconds, ok), ref
                                 in zip(tally.names, tally.samples, tally.refs)]}, out)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": len(tally.samples),
        "failed": sum(1 for _, ok in tally.samples if not ok),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_metrics(result: dict) -> dict:
    (_, metrics, excluded), *rest = result["traced"]
    counts = tr.count_metrics(metrics)
    mismatches = sum(1 for _, other, _ in rest for k, v in tr.count_metrics(other).items()
                     if counts.get(k) != v)
    print(f"per-layer counts of {len(result['traced'])} traced passes "
          f"{'repeat exactly' if not mismatches else 'DIFFER'}")
    metrics = dict(metrics)
    metrics["import.leafmult_s"] = (result["import"][0], "s")
    metrics["import.sympy_s"] = (result["import"][1], "s")
    # the first untraced pass also warms the process up; compare the traced
    # passes with the untraced pass run between them
    traced_s = statistics.mean(seconds for seconds, _, _ in result["traced"])
    metrics["trace.overhead_s"] = (traced_s - result["untraced"][-1], "s")
    metrics["trace.excluded_cases"] = (excluded, "count")
    metrics["trace.repeat_mismatches"] = (mismatches, "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
