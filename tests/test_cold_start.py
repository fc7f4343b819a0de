"""Cold start: sympy loads only when a polynomial of total degree >= 2 must
be factored and no factor has a certificate of irreducibility; no command
on the shipped manifests needs it.  The commands run in a fresh
interpreter, because other tests import sympy into this one."""

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

# runs each step in turn and prints, per step, its exit codes and whether
# sympy was loaded after it
PROBE = """
import contextlib, io, json, sys

def loaded():
    return "sympy" in sys.modules

steps = []
import leafmult
steps.append(("import leafmult", [], loaded()))
import leafmult.cli
steps.append(("import leafmult.cli", [], loaded()))
for label, argv_list in json.loads(sys.argv[1]):
    codes = []
    for argv in argv_list:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(leafmult.cli.main(argv))
    steps.append((label, codes, loaded()))
# t1^2 + t2^2 has no certificate: shows that the probe sees sympy load
from leafmult.poly import factor, parse_polynomial
factor(parse_polynomial("t1^2 + t2^2", ("t1", "t2")))
steps.append(("factor t1^2 + t2^2", [], loaded()))
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


@pytest.fixture(scope="module")
def probe(tmp_path_factory) -> dict:
    tmp_path = tmp_path_factory.mktemp("cold")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(_steps(tmp_path))],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    return {label: (codes, loaded) for label, codes, loaded in json.loads(out.stdout)}


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
