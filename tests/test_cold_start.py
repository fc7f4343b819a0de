"""Cold start: sympy loads only when a polynomial of total degree >= 2 must
be factored, no factor has a certificate of irreducibility and it is not a
quadratic in one variable; no command on the shipped manifests needs it.  A
command loads only the leafmult layers it runs: `import leafmult` loads
none, and each command group runs in an interpreter of its own to show
which ones it adds.  The commands run in fresh interpreters, because
other tests import sympy and every layer into this one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"
NAMES = ("e1-tangent-parabolas", "exponential-leaf", "isolated-transversal",
         "appendix-cusp", "appendix-double-sheet")
BOUND_NAMES = ("e1-tangent-parabolas", "exponential-leaf", "isolated-transversal")
APPENDIX_NAMES = ("appendix-cusp", "appendix-double-sheet")

# runs each step in turn and prints, per step, its exit codes, whether
# sympy was loaded after it and which leafmult submodules were
PROBE = """
import contextlib, io, json, sys

def loaded():
    return "sympy" in sys.modules, sorted(
        name.split(".", 1)[1] for name in sys.modules if name.startswith("leafmult."))

steps = []
import leafmult
steps.append(("import leafmult", [], *loaded()))
import leafmult.cli
steps.append(("import leafmult.cli", [], *loaded()))
for label, argv_list in json.loads(sys.argv[1]):
    codes = []
    for argv in argv_list:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(leafmult.cli.main(argv))
    steps.append((label, codes, *loaded()))
if sys.argv[2:] == ["factor"]:
    # t1^2 + t2^2 has no certificate: shows that the probe sees sympy load
    from leafmult.poly import factor, parse_polynomial
    factor(parse_polynomial("t1^2 + t2^2", ("t1", "t2")))
    steps.append(("factor t1^2 + t2^2", [], *loaded()))
print(json.dumps(steps))
"""


def _steps(tmp_path) -> list:
    trace = {name: str(tmp_path / f"{name}.trace.json") for name in BOUND_NAMES}
    return [
        ("check on every manifest",
         [["check", "--manifest", str(MANIFESTS / f"{n}.json")] for n in NAMES]),
        *[(f"bound --trace on {n}",
           [["bound", "--manifest", str(MANIFESTS / f"{n}.json"), "--trace", trace[n]]])
          for n in BOUND_NAMES],
        *[(f"verify --from-trace on {n}", [["verify", "--from-trace", trace[n]]])
          for n in BOUND_NAMES],
        *[(f"appendix on {n}", [["appendix", "--manifest", str(MANIFESTS / f"{n}.json")]])
          for n in APPENDIX_NAMES],
    ]


def _run(steps, factor=False) -> list:
    """The probe's steps, run in one fresh interpreter; with factor, then
    the factorization that loads sympy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    extra = ["factor"] if factor else []
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(steps), *extra],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def cold_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cold")


@pytest.fixture(scope="module")
def probe(cold_dir) -> dict:
    """Every step in turn, in one interpreter."""
    return {label: (codes, loaded)
            for label, codes, loaded, _ in _run(_steps(cold_dir), factor=True)}


# each command group, run in a fresh interpreter of its own: the layers it
# needs, and the layers it must not load
GROUPS = {
    "check": ("check on every manifest", {"manifest", "foliation"},
              {"ideals", "localbasis", "germs", "series", "puiseux", "pairs",
               "extension", "verify"}),
    "bound": ("bound --trace on", {"pairs", "germs"}, {"extension", "verify"}),
    "verify": ("verify --from-trace on", {"verify", "localbasis"},
               {"germs", "series", "puiseux", "pairs", "extension"}),
    "appendix": ("appendix on", {"extension"}, {"verify"}),
}


@pytest.fixture(scope="module")
def layers(cold_dir, probe) -> dict:
    """{group: leafmult submodules loaded after its last step}; the probe
    fixture has written the traces that the verify group reads."""
    steps = _steps(cold_dir)
    out = {}
    for group, (prefix, _, _) in GROUPS.items():
        ran = _run([step for step in steps if step[0].startswith(prefix)])
        assert all(code == 0 for _, codes, _, _ in ran for code in codes)
        out[group] = set(ran[-1][3])
    return out


COLD = ["import leafmult", "import leafmult.cli", "check on every manifest",
        *[f"bound --trace on {n}" for n in BOUND_NAMES],
        *[f"verify --from-trace on {n}" for n in BOUND_NAMES],
        *[f"appendix on {n}" for n in APPENDIX_NAMES]]


@pytest.mark.parametrize("label", COLD)
def test_sympy_not_loaded(probe, label):
    codes, loaded = probe[label]
    assert all(code == 0 for code in codes)
    assert not loaded


def test_probe_detects_sympy(probe):
    codes, loaded = probe["factor t1^2 + t2^2"]
    assert loaded


def test_import_loads_no_layer():
    label, _, _, modules = _run([])[0]
    assert label == "import leafmult"
    assert modules == []


@pytest.mark.parametrize("group", GROUPS)
def test_command_loads_only_its_layers(layers, group):
    _, needed, forbidden = GROUPS[group]
    assert needed <= layers[group]
    assert not layers[group] & forbidden


# the flat-leaf cases of tests/test_acceptance.py::test_criterion_7, then
# one h*f, h*g pair for each common factor h of the exact-leaf benchmark
# family, with the direct multiplicity each must give
FLAT_CASES = [
    ("x*(x-y^2)", "x*(x-2*y^2)", 2),
    ("x", "y", 1),
    ("x-y^2", "y-x^2", 1),
    ("x^2*(x-y^2)", "x*(x-2*y^2)", 2),
    ("x*(x-y^3)", "x*(x+y^3)", 3),
    ("x*(y-x^2)", "x*(y+x^2)", 2),
    ("y*(y-x^2)", "y*(y+x^2)", 2),
    ("(y^2-x^3)*x", "(y^2-x^3)*y", 1),
    ("(x-y^2)*(x-2*y^2)", "(x-y^2)*(x-3*y^2)", 2),
    ("x^2*(x-y^2)", "x^2*(x-2*y^2)", 2),
    ("(y^2-x^3)*(x-y^2)", "(y^2-x^3)*(x-2*y^2)", 2),
    ("(x)*(y-2*x^3)", "(x)*(y+1/2*x^3)", 3),
    ("(x-y^2)*(x-3/2*y^2)", "(x-y^2)*(x+2*y^2)", 2),
    ("(y^2-x^3)*(y-3*x^2)", "(y^2-x^3)*(y+2/3*x^2)", 2),
    ("(x^2)*(x-2*y^3)", "(x^2)*(x+3*y^3)", 3),
    ("(x+y)*(y-2*x^2)", "(x+y)*(y-1/2*x^2)", 2),
    ("(y)*(x-3*y)", "(y)*(x+y)", 1),
]

# the exponential-leaf cases of tests/test_acceptance.py::test_criterion_7
EXP_CASES = [
    ("z-1", "y", 1),
    ("z-1", "x+y", 1),
    ("(z-1)*(x-y^2)", "(z-1)*(x-2*y^2)", 2),
]
# non-isolated exponential-leaf cases whose common and variety-trace
# branches come from global factors, which poly.factor splits by its
# certificates and by the gcd with the other polynomial
EXP_GLOBAL_SPLIT_CASES = [
    ("(z-1-y)*x", "(z-1-y)*y", 1),
    ("(z-1-x-y)*(y-x^3)", "(z-1-x-y)*(y+1/2*x^3)", 3),
    ("x*(z-1)*(y-x^2)", "x*(z-1)*(y+x^2)", 2),
    ("(z-1-y)^2*(x-y)", "(z-1-y)*(x+y)", 1),
]
# (V1, V2, base point) of each leaf
FLAT_LEAF = (("1", "0", "0"), ("0", "1", "0"), (0, 0, 0))
EXP_LEAF = (("1", "0", "z"), ("0", "1", "0"), (0, 0, 1))

LEAF_PROBE = """
import json, sys
from leafmult.foliation import FoliationContext, VectorField
from leafmult.pairs import nonisolated_bound
from leafmult.poly import parse_polynomial

XYZ = ("x", "y", "z")

def vf(texts):
    return VectorField(XYZ, tuple(parse_polynomial(t, XYZ) for t in texts))

v1, v2, point = json.loads(sys.argv[2])
out = []
for f, g, _ in json.loads(sys.argv[1]):
    ctx = FoliationContext(vf(v1), vf(v2), tuple(point))
    report = nonisolated_bound(parse_polynomial(f, XYZ), parse_polynomial(g, XYZ), ctx)
    out.append((report.ledger.status, int(report.direct_value)))
print(json.dumps({"results": out, "sympy": "sympy" in sys.modules}))
"""


def _bounds_in_fresh_interpreter(cases, leaf) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", LEAF_PROBE, json.dumps(cases), json.dumps(leaf)],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout)


def test_flat_leaf_bounds_do_not_load_sympy():
    """On the flat leaf every restriction is an exact polynomial; on these
    cases its gcds with the other restrictions split it into certified
    factors, so the whole pipeline runs without sympy."""
    probe = _bounds_in_fresh_interpreter(FLAT_CASES, FLAT_LEAF)
    assert probe["results"] == [["point-excluded", k] for _, _, k in FLAT_CASES]
    assert not probe["sympy"]


def test_exponential_leaf_bounds_do_not_load_sympy():
    """On the exponential leaf the Newton-Puiseux expansion factors edge
    polynomials in one variable; each one these cases meet has a
    certificate or is a quadratic, which poly.factor decides by its
    discriminant."""
    probe = _bounds_in_fresh_interpreter(EXP_CASES, EXP_LEAF)
    assert probe["results"] == [["point-excluded", k] for _, _, k in EXP_CASES]
    assert not probe["sympy"]


def test_exponential_leaf_global_splits_do_not_load_sympy():
    """A cold non-isolated bound on the exponential leaf factors F and G
    over Q to split off their common branches and the branches on the
    variety trace; none of these factorizations needs sympy."""
    probe = _bounds_in_fresh_interpreter(EXP_GLOBAL_SPLIT_CASES, EXP_LEAF)
    assert probe["results"] == [["point-excluded", k] for _, _, k in EXP_GLOBAL_SPLIT_CASES]
    assert not probe["sympy"]
