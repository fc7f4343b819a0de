"""Inputs of the benchmark workloads and the values their outputs are checked against.

Every value a case is checked against is known without running leafmult:

* catalog cases carry the direct multiplicity stated in the soundness
  catalog of the acceptance tests, plus the bound and ledger transfer
  sequence that the first benchmarked version certified (a certified
  number that changes is a bug, not a speed-up);
* family draws ``h*f, h*g`` carry the intersection multiplicity of the
  cofactors ``f = v - a*w^k`` and ``g = v - b*w^k`` with ``a != b``,
  which is ``k`` by construction.

A seed draws the rational parameters of each family slot and the order of
the cases.  The slots themselves are fixed, so every seed runs the same
mix of common branches and cofactor shapes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Wall-clock limit of one case: an in-process bound or one CLI command.
DEADLINE_S = 6.0

VARIABLES = ("x", "y", "z")
LEAVES = {
    # name: (V1, V2, base point)
    "flat": (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
    "exp": (("1", "0", "z"), ("0", "1", "0"), ("0", "0", "1")),
}


@dataclass(frozen=True)
class Case:
    leaf: str
    f: str
    g: str
    direct: int                          # multiplicity known independently
    bound: Optional[int] = None          # pinned certified bound
    steps: Optional[tuple] = None        # pinned (kind, scale, offset) sequence

    @property
    def name(self) -> str:
        return f"{self.leaf}:{self.f}|{self.g}"


R, J, P = "radical", "jacobian", "poisson"
E1_STEPS = ((R, 4, 0), (J, 1, 0), (R, 4, 0), (P, 1, 1), (R, 1, 0))
ISOLATED_STEPS = ((P, 1, 1), (R, 1, 0))

# tests/test_acceptance.py::test_criterion_7, one fresh context per case.
CATALOG_FLAT = (
    Case("flat", "x*(x-y^2)", "x*(x-2*y^2)", 2, 16, E1_STEPS),
    Case("flat", "x", "y", 1, 1, ISOLATED_STEPS),
    Case("flat", "x-y^2", "y-x^2", 1, 1, ISOLATED_STEPS),
    Case("flat", "x^2*(x-y^2)", "x*(x-2*y^2)", 2, 36,
         ((R, 9, 0), (J, 1, 0), (R, 4, 0), (P, 1, 1), (R, 1, 0))),
    Case("flat", "x*(x-y^3)", "x*(x+y^3)", 3, 36,
         ((R, 4, 0), (J, 1, 0), (R, 9, 0), (P, 1, 1), (R, 1, 0))),
    Case("flat", "x*(y-x^2)", "x*(y+x^2)", 2, 9,
         ((R, 9, 0), (J, 1, 0), (R, 1, 0), (P, 1, 1), (R, 1, 0))),
    Case("flat", "y*(y-x^2)", "y*(y+x^2)", 2, 16, E1_STEPS),
    Case("flat", "(y^2-x^3)*x", "(y^2-x^3)*y", 1, 64,
         ((R, 4, 0), (J, 1, 0), (R, 16, 0), (P, 1, 1), (R, 1, 0))),
    Case("flat", "(x-y^2)*(x-2*y^2)", "(x-y^2)*(x-3*y^2)", 2, 16, E1_STEPS),
    Case("flat", "x^2*(x-y^2)", "x^2*(x-2*y^2)", 2, 36,
         ((R, 9, 0), (J, 1, 0), (R, 4, 0), (P, 1, 1), (R, 1, 0))),
    Case("flat", "(y^2-x^3)*(x-y^2)", "(y^2-x^3)*(x-2*y^2)", 2, 80,
         ((R, 4, 0), (J, 1, 0), (R, 4, 0), (P, 1, 1), (R, 4, 0), (P, 1, 1), (R, 1, 0))),
)
CATALOG_EXP = (
    Case("exp", "z-1", "y", 1, 1, ISOLATED_STEPS),
    Case("exp", "z-1", "x+y", 1, 1, ISOLATED_STEPS),
    Case("exp", "(z-1)*(x-y^2)", "(z-1)*(x-2*y^2)", 2, 36,
         ((R, 4, 0), (P, 1, 1), (R, 4, 0), (J, 1, 0), (R, 1, 0),
          (P, 1, 1), (R, 1, 0), (P, 1, 1), (R, 1, 0))),
)
# Inputs that missed the deadline when the benchmark was defined: stuck in
# mora_normal_form, running over 40 s, and correct only after 23 s.
KNOWN_SLOW_EXP = (
    Case("exp", "(z-1)*(y-x^2)", "(z-1)*(y+x^2)", 2),
    Case("exp", "(z-1-y)*x", "(z-1-y)*y", 1),
    Case("exp", "(z-1)*(x-y^3)", "(z-1)*(x+y^3)", 3),
)

def context(leaf: str):
    """A fresh FoliationContext for the named leaf."""
    from leafmult.foliation import FoliationContext, VectorField
    from leafmult.poly import parse_polynomial

    v1, v2, point = LEAVES[leaf]
    return FoliationContext(
        VectorField(VARIABLES, tuple(parse_polynomial(t, VARIABLES) for t in v1)),
        VectorField(VARIABLES, tuple(parse_polynomial(t, VARIABLES) for t in v2)),
        tuple(parse_polynomial(t, VARIABLES).constant_value() for t in point))


def polynomials(case: Case) -> tuple:
    from leafmult.poly import parse_polynomial

    return parse_polynomial(case.f, VARIABLES), parse_polynomial(case.g, VARIABLES)


# Family slots: (leaf, common factor h, cofactor variable v, exponent k).
# The cofactor pair is (v - a*w^k, v - b*w^k), w the other of x, y.
EXACT_SLOTS = tuple(
    ("flat", h, v, k)
    for h in ("x", "x-y^2", "y^2-x^3", "x^2", "x+y", "y")
    for v in ("x", "y")
    for k in (1, 2, 3))
# On the exponential leaf most of the family raises "cycle could not be
# re-identified at higher order" within a second.  Draws whose common
# factor is z-1 either run into the deadline like the known slow inputs
# above or take as long as the catalog's transcendental case; the fixed
# cases stand for them, so the length of a pass does not hang on the seed.
# The x - a*y^3 shape is left out for the same reason (about 2 s each).
TRANSCENDENTAL_SLOTS = tuple(
    ("exp", h, v, k)
    for h in ("z-1-y", "z-1-x-y")
    for v, k in (("x", 1), ("x", 2), ("y", 2), ("y", 3)))
# Branches v - a*w^k of each common factor, so a cofactor never equals one.
H_BRANCHES = {"x-y^2": {("x", Fraction(1), 2)}, "x+y": {("x", Fraction(-1), 1)}}
PARAMETERS = tuple(Fraction(n, d) * s for n, d in ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (2, 3))
                   for s in (1, -1))


def _branch(v: str, a: Fraction, k: int) -> tuple:
    # for k = 1, y - a*x and x - (1/a)*y are the same branch
    if k == 1 and v == "y":
        return ("x", 1 / a, 1)
    return (v, a, k)


def _cofactor(v: str, a: Fraction, k: int) -> str:
    w = "y" if v == "x" else "x"
    mono = w if k == 1 else f"{w}^{k}"
    sign = "-" if a > 0 else "+"
    coeff = "" if abs(a) == 1 else f"{abs(a)}*"
    return f"{v}{sign}{coeff}{mono}"


def draw_family(slots, rng: random.Random) -> list:
    cases = []
    for leaf, h, v, k in slots:
        taken = H_BRANCHES.get(h, set())
        pool = [a for a in PARAMETERS if _branch(v, a, k) not in taken]
        a, b = rng.sample(pool, 2)
        f, g = _cofactor(v, a, k), _cofactor(v, b, k)
        cases.append(Case(leaf, f"({h})*({f})", f"({h})*({g})", k))
    return cases


def in_process_cases(workload: str, seed: int) -> list:
    rng = random.Random(f"leafmult-bench|{workload}|{seed}")
    if workload == "exact-leaf":
        cases = list(CATALOG_FLAT) + draw_family(EXACT_SLOTS, rng)
    elif workload == "transcendental-leaf":
        cases = list(CATALOG_EXP) + list(KNOWN_SLOW_EXP) + draw_family(TRANSCENDENTAL_SLOTS, rng)
    else:
        raise ValueError(f"{workload} is not an in-process workload")
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# cli-cold: one cold child process per command over the shipped manifests
# ---------------------------------------------------------------------------

MANIFESTS = ("e1-tangent-parabolas", "exponential-leaf", "isolated-transversal",
             "appendix-cusp", "appendix-double-sheet")


@dataclass(frozen=True)
class Command:
    kind: str            # check | bound | verify | appendix
    manifest: str
    expect: tuple        # lines that must appear in stdout, in this order


def _steps_lines(steps) -> tuple:
    return tuple(f"  step {i}: {kind:<9} transfer m -> {a}*m + {b}"
                 for i, (kind, a, b) in enumerate(steps))


BOUND_EXPECT = {
    # manifest: (direct value known independently, pinned bound, pinned steps)
    "e1-tangent-parabolas": (2, 16, E1_STEPS),
    "exponential-leaf": (1, 1, ISOLATED_STEPS),
    "isolated-transversal": (1, 1, ISOLATED_STEPS),
}
APPENDIX_EXPECT = {
    "appendix-cusp": ("witness H = t1^3 - t2^2", "mu = 2, subsets = 1 <= 4"),
    "appendix-double-sheet": ("witness H = t1^3", "mu = 2, subsets = 2 <= 4"),
}


def cli_commands(seed: int) -> list:
    """One pass of commands; each verify follows the bound that wrote its trace."""
    groups = [[Command("check", m, ("OK commutation: all bracket components vanish",))]
              for m in MANIFESTS]
    for m, (direct, bound, steps) in BOUND_EXPECT.items():
        groups.append([
            Command("bound", m, ("status: point-excluded",
                                 f"direct local multiplicity: {direct}",
                                 f"certified upper bound: {bound}") + _steps_lines(steps)),
            # every step, then the final and bound checks, must PASS
            Command("verify", m, tuple(["PASS"] * (len(steps) + 2))),
        ])
    for m, lines in APPENDIX_EXPECT.items():
        groups.append([Command("appendix", m, lines + ("divisibility checked: True",
                                                       "vanishing checked: True"))])
    random.Random(f"leafmult-bench|cli-cold|{seed}").shuffle(groups)
    return [c for group in groups for c in group]


def cli_argv(cmd: Command, manifest_dir: str, trace_dir: str) -> list:
    manifest = f"{manifest_dir}/{cmd.manifest}.json"
    trace = f"{trace_dir}/{cmd.manifest}.trace.json"
    if cmd.kind == "bound":
        return ["bound", "--manifest", manifest, "--trace", trace]
    if cmd.kind == "verify":
        return ["verify", "--from-trace", trace]
    return [cmd.kind, "--manifest", manifest]


def check_cli_output(cmd: Command, returncode: int, stdout: str) -> Optional[str]:
    """None when the command's output is right, else what is wrong."""
    if returncode != 0:
        return f"exit {returncode}"
    lines = stdout.splitlines()
    if cmd.kind == "verify":
        marks = [line.split(" ", 1)[0] for line in lines]
        if marks != list(cmd.expect):
            return f"verify lines {marks}, expected {len(cmd.expect)} x PASS"
        return None
    at = 0
    for want in cmd.expect:
        try:
            at = lines.index(want, at) + 1
        except ValueError:
            return f"missing line {want!r}"
    return None
