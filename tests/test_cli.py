import copy
import json
from pathlib import Path

import pytest

from leafmult.cli import main
from leafmult.extension import WITNESS_JET_ORDER
from leafmult.foliation import MAX_CERT_ORDER, FoliationContext
from leafmult.manifest import ProblemManifest, load_trace

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

FLAT = {
    "variables": ["x", "y", "z"],
    "v1": ["1", "0", "0"],
    "v2": ["0", "1", "0"],
    "point": ["0", "0", "0"],
}


def write_manifest(tmp_path, name="m.json", **extra):
    data = dict(FLAT)
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestCheck:
    def test_ok(self, tmp_path, capsys):
        path = write_manifest(tmp_path)
        assert main(["check", "--manifest", path]) == 0
        out = capsys.readouterr().out
        assert "OK commutation" in out and "OK base point" in out

    def test_commutation_failure(self, tmp_path, capsys):
        path = write_manifest(tmp_path, v1=["y", "0", "0"], v2=["0", "x", "0"])
        assert main(["check", "--manifest", path]) == 2
        assert "FAIL commutation" in capsys.readouterr().out

    def test_singular_point(self, tmp_path, capsys):
        path = write_manifest(tmp_path, v1=["1", "0", "0"], v2=["2", "0", "0"])
        assert main(["check", "--manifest", path]) == 2
        assert "FAIL base point" in capsys.readouterr().out

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", "--manifest", str(path)]) == 1


class TestBound:
    def test_worked_example(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-2*y^2)")
        code = main(["bound", "--manifest", path, "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: point-excluded" in out
        assert trace.exists()
        data = load_trace(trace)
        assert data["trace_version"] == 1
        assert data["report"]["bound"] >= 2

    def test_isolated(self, tmp_path, capsys):
        path = write_manifest(tmp_path, f="x", g="y")
        assert main(["bound", "--manifest", path]) == 0
        assert "certified upper bound: 1" in capsys.readouterr().out

    def test_budget_starved(self, tmp_path, capsys):
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-2*y^2)")
        code = main(["bound", "--manifest", path, "--budget", "3"])
        assert code == 3

    def test_exact_jets_above_the_order_caps(self, tmp_path, capsys):
        # the order-28 run asks for order 164, above both the decomposition
        # and the stabilization cap; exact leaf jets need no regeneration
        trace = tmp_path / "trace.json"
        path = write_manifest(tmp_path, f="(y^3-x^4)*(x-y^2)", g="(y^3-x^4)*(x-2*y^2)")
        assert main(["bound", "--manifest", path, "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "status: point-excluded" in out
        assert "direct local multiplicity: 2" in out
        assert "certified upper bound: 640" in out
        assert main(["verify", "--from-trace", str(trace)]) == 0
        marks = [line.split(" ", 1)[0] for line in capsys.readouterr().out.splitlines()]
        assert marks == ["PASS"] * 9

    def test_missing_polynomials(self, tmp_path):
        path = write_manifest(tmp_path)
        assert main(["bound", "--manifest", path]) == 1

    def test_degenerate_inputs(self, tmp_path):
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-y^2)")
        assert main(["bound", "--manifest", path]) == 2

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_low_jet_order_is_used(self, capsys, order):
        # order 0 is an order, not "unset": it must not fall back to the
        # default order, where this manifest succeeds
        assert main(["bound", "--manifest", E1, "--jet-order", order]) == 2
        assert "vanishes at this order" in capsys.readouterr().err


FLAT_PAIR = dict(FLAT, f="x*(x-y^2)", g="x*(x-2*y^2)")
E1 = str(MANIFESTS / "e1-tangent-parabolas.json")


class TestMalformedInput:
    """Malformed manifests and command-line values end with exit 1 and a
    `parse error:` line, never a traceback or a silent misreading."""

    @pytest.mark.parametrize("manifest,argv", [
        (dict(FLAT_PAIR, options={"jet_order": "abc"}), []),
        (dict(FLAT_PAIR, options={"budget": "lots"}), []),
        (dict(FLAT_PAIR, options=[1, 2]), []),
        (dict(FLAT_PAIR, options={"jet_order": -3}), []),
        (dict(FLAT_PAIR, options={"budget": -1}), []),
        (dict(FLAT_PAIR, options={"seed": True}), []),
        (dict(FLAT_PAIR, options={"trace": 7}), []),
        (dict(FLAT_PAIR, options={"jet-order": 5}), []),
        (dict(FLAT_PAIR, f=5), []),
        (dict(FLAT_PAIR, ideal="x"), []),
        (dict(FLAT_PAIR, variables="xyz"), []),
        (dict(FLAT_PAIR, v1="100"), []),
        (dict(FLAT_PAIR, point=0), []),
        (dict(FLAT_PAIR, variables=["x", "x", "z"]), []),
        (None, ["bound", "--manifest", E1, "--jet-order", "-1"]),
        (None, ["bound", "--manifest", E1, "--jet-order", "abc"]),
        (None, ["bound", "--manifest", E1, "--budget", "-5"]),
        (None, ["appendix", "--manifest", E1, "--jet-order", "-2"]),
        (None, ["verify", "--count", "-1"]),
        (None, ["bound"]),
        (None, ["nonsense"]),
    ])
    def test_exit_1_without_traceback(self, manifest, argv, tmp_path, capsys):
        if manifest is not None:
            path = tmp_path / "m.json"
            path.write_text(json.dumps(manifest))
            argv = ["bound", "--manifest", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "Traceback" not in err


class TestVerify:
    def test_suites(self, capsys):
        assert main(["verify", "--suite", "poisson-lemma", "--count", "5"]) == 0
        assert "PASS poisson-lemma" in capsys.readouterr().out

    def test_vacuous(self, capsys):
        assert main(["verify", "--suite", "lt-facts", "--count", "0"]) == 0

    def test_unknown_suite(self):
        assert main(["verify", "--suite", "nope"]) == 1

    def test_from_trace_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-2*y^2)")
        assert main(["bound", "--manifest", path, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["verify", "--from-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_from_trace_detects_tampering(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-2*y^2)")
        main(["bound", "--manifest", path, "--trace", str(trace)])
        data = json.loads(trace.read_text())
        data["report"]["bound"] = 0  # forge a tighter bound
        trace.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--from-trace", str(trace)]) == 4


def _forge(report, forgery):
    """Apply one forgery to a bound report; the bound is recomputed from the
    forged transfers, so only a re-derived transfer, the soundness flags or
    the direct value can expose it."""
    steps = report["ledger"]["steps"]
    kinds = [s["kind"] for s in steps]
    jacobian = steps[kinds.index("jacobian")]
    poisson = steps[kinds.index("poisson")]
    if forgery == "e1":
        jacobian["transfer"]["scale"] = 0
        poisson["transfer"]["offset"] = 0
    elif forgery == "jacobian-scale":
        jacobian["transfer"]["scale"] += 1
    elif forgery == "jacobian-K":
        jacobian["evidence"]["K"] = 0
        jacobian["transfer"]["scale"] = 0
    elif forgery == "poisson-scale":
        poisson["transfer"]["scale"] = 2
    elif forgery == "radical-weight":
        steps[0]["evidence"]["weight"] = 1
        steps[0]["transfer"]["scale"] = 1
    elif forgery == "unsound-step":
        steps[0]["sound"] = False
    elif forgery == "local-order-at-direct":
        # membership modulo m^3 does not decide an ideal of colength 2
        jacobian["evidence"]["local_order"] = report["direct_value"]
    elif forgery == "jacobian-local-generators":
        # t1 still passes the certified exponent, but 2*x - y^2 restricts
        # to 2*t1 - t2^2, outside (t1)
        jacobian["evidence"]["local_generators"] = ["t1"]
    m = 0
    for step in steps[::-1]:
        m = step["transfer"]["scale"] * m + step["transfer"]["offset"]
    report["bound"] = m
    if forgery == "direct-above-bound":
        report["direct_value"] = m + 1
    if forgery == "jacobian-K":
        report["direct_value"] = None
    if forgery == "direct-null-at-bound":
        # without a direct value the local order must be above the bound
        report["direct_value"] = None


class TestVerifyForgedTransfers:
    @pytest.mark.parametrize("forgery", ["e1", "jacobian-scale", "jacobian-K", "poisson-scale",
                                         "radical-weight", "unsound-step",
                                         "direct-above-bound", "local-order-at-direct",
                                         "direct-null-at-bound", "jacobian-local-generators"])
    def test_rejected(self, tmp_path, capsys, forgery):
        trace = tmp_path / "trace.json"
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-2*y^2)")
        assert main(["bound", "--manifest", path, "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        lines = len(data["report"]["ledger"]["steps"]) + 2
        capsys.readouterr()
        assert main(["verify", "--from-trace", str(trace)]) == 0
        assert capsys.readouterr().out.count("PASS") == lines
        _forge(data["report"], forgery)
        if forgery == "e1":
            assert data["report"]["bound"] == 0 < data["report"]["direct_value"]
        if forgery == "local-order-at-direct":
            assert data["report"]["direct_value"] == 2
        if forgery == "direct-null-at-bound":
            jacobian = [s for s in data["report"]["ledger"]["steps"] if s["kind"] == "jacobian"]
            assert data["report"]["bound"] == jacobian[0]["evidence"]["local_order"] == 16
        trace.write_text(json.dumps(data))
        assert main(["verify", "--from-trace", str(trace)]) == 4
        out = capsys.readouterr().out
        # one line per step plus the final and bound lines, as before
        assert len(out.splitlines()) == lines
        assert out.count("FAIL") >= 1
        if forgery in ("local-order-at-direct", "direct-null-at-bound"):
            assert "FAIL step 1 [jacobian] (local order " in out
        if forgery == "jacobian-local-generators":
            assert "FAIL step 1 [jacobian] (restriction of " in out
            assert out.count("FAIL") == 1

    @pytest.mark.parametrize("local_order", [MAX_CERT_ORDER + 1, 10 ** 6])
    def test_local_order_above_the_cap(self, tmp_path, capsys, monkeypatch, local_order):
        # on the exponential leaf a leaf jet's cost grows with its order, so a
        # forged local order must fail its step before any jet is built at it
        trace = tmp_path / "trace.json"
        path = write_manifest(tmp_path, v1=["1", "0", "z"], point=["0", "0", "1"],
                              f="(z-1)*(x-y^2)", g="(z-1)*(x-2*y^2)")
        assert main(["bound", "--manifest", path, "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        steps = data["report"]["ledger"]["steps"]
        lines = len(steps) + 2
        idx = [s["kind"] for s in steps].index("jacobian")
        steps[idx]["evidence"]["local_order"] = local_order
        trace.write_text(json.dumps(data))
        orders = []
        real = FoliationContext.leaf_jet

        def recording(self, f, order):
            orders.append(order)
            return real(self, f, order)

        monkeypatch.setattr(FoliationContext, "leaf_jet", recording)
        capsys.readouterr()
        assert main(["verify", "--from-trace", str(trace)]) == 4
        out = capsys.readouterr().out
        assert len(out.splitlines()) == lines
        assert f"FAIL step {idx} [jacobian] (missing or ill-typed step field)" in out
        assert max(orders, default=0) <= MAX_CERT_ORDER


# evidence keys nothing re-checks: deleting one leaves the trace valid
INFORMATIONAL = {"status", "worst_case_factor", "basis", "removed_branches"}
# sections verify reads before any step: deleting one is a parse error
SECTIONS = [("trace_version",), ("manifest",), ("report",), ("report", "inputs"),
            ("report", "ledger"), ("manifest", "variables"), ("manifest", "v1"),
            ("manifest", "v2"), ("manifest", "point"), ("report", "inputs", "F"),
            ("report", "inputs", "G"), ("report", "ledger", "steps")]


def _step_key_paths(steps):
    """Every key of every ledger step, and every key one level below it."""
    for i, step in enumerate(steps):
        for key, value in step.items():
            yield ("report", "ledger", "steps", i, key)
            if isinstance(value, dict):
                for inner in value:
                    yield ("report", "ledger", "steps", i, key, inner)


def _without(data, path):
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return data


class TestVerifyMalformedTrace:
    def test_every_deleted_key_exits_cleanly(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-2*y^2)")
        assert main(["bound", "--manifest", path, "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        steps = data["report"]["ledger"]["steps"]
        assert [s["kind"] for s in steps] == ["radical", "jacobian", "radical", "poisson",
                                             "radical"]
        codes, expected = {}, {}
        for key_path in SECTIONS + list(_step_key_paths(steps)):
            broken = tmp_path / "broken.json"
            broken.write_text(json.dumps(_without(data, key_path)))
            codes[key_path] = main(["verify", "--from-trace", str(broken)])
            if key_path in SECTIONS:
                expected[key_path] = 1
            elif key_path[-1] in INFORMATIONAL:
                expected[key_path] = 0
            else:
                expected[key_path] = codes[key_path] if codes[key_path] in (1, 4) else "1 or 4"
        capsys.readouterr()
        assert codes == expected
        assert len(codes) == len(SECTIONS) + 72

    def test_ill_typed_fields_fail_their_step(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-2*y^2)")
        assert main(["bound", "--manifest", path, "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        lines = len(data["report"]["ledger"]["steps"]) + 2

        def evidence(i, **fields):
            return lambda r: r["ledger"]["steps"][i]["evidence"].update(fields)

        for forge in (evidence(1, k="1"), evidence(1, k=True), evidence(1, local_order="16"),
                      evidence(1, local_generators="t1"), evidence(0, exponents=[10 ** 9]),
                      lambda r: r["ledger"]["steps"][3]["transfer"].update(offset=None),
                      lambda r: r["ledger"]["steps"].__setitem__(2, "radical"),
                      lambda r: r.update(direct_value="2")):
            broken = copy.deepcopy(data)
            forge(broken["report"])
            trace.write_text(json.dumps(broken))
            capsys.readouterr()
            assert main(["verify", "--from-trace", str(trace)]) == 4
            assert len(capsys.readouterr().out.splitlines()) == lines

    def test_parse_errors(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text("[1, 2]")
        assert main(["verify", "--from-trace", str(trace)]) == 1
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="x*(x-2*y^2)")
        assert main(["bound", "--manifest", path, "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        data["report"]["ledger"]["steps"][3]["evidence"]["F"] = "x**"
        trace.write_text(json.dumps(data))
        assert main(["verify", "--from-trace", str(trace)]) == 1


class TestAppendix:
    def test_single_sheet(self, tmp_path, capsys):
        path = write_manifest(tmp_path, f="x*(x-y^2)", ideal=["x"])
        assert main(["appendix", "--manifest", path]) == 0
        out = capsys.readouterr().out
        assert "witness H = t1" in out

    def test_hypothesis_failure(self, tmp_path):
        path = write_manifest(tmp_path, f="x", ideal=["x", "y"])
        assert main(["appendix", "--manifest", path]) == 2

    def test_manifest_options(self, tmp_path, capsys):
        # the manifest's trace and jet_order apply as they do for bound;
        # --trace and --jet-order override them
        trace = tmp_path / "witness.json"
        path = write_manifest(tmp_path, f="x*(x-y^2)", ideal=["x"],
                              options={"trace": str(trace), "jet_order": 12})
        assert main(["appendix", "--manifest", path]) == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        assert load_trace(trace)["report"]["certificate_order"] == 12
        other = tmp_path / "other.json"
        assert main(["appendix", "--manifest", path, "--jet-order", "10",
                     "--trace", str(other)]) == 0
        assert load_trace(other)["report"]["certificate_order"] == 10
        plain = write_manifest(tmp_path, "plain.json", f="x*(x-y^2)", ideal=["x"])
        assert main(["appendix", "--manifest", plain, "--trace", str(other)]) == 0
        assert load_trace(other)["report"]["certificate_order"] == WITNESS_JET_ORDER == 16

    @pytest.mark.parametrize("name,lines", [
        ("appendix-cusp", ["witness H = t1^3 - t2^2", "mu = 2, subsets = 1 <= 4"]),
        ("appendix-double-sheet", ["witness H = t1^3", "mu = 2, subsets = 2 <= 4"]),
    ])
    def test_shipped_manifests(self, name, lines, capsys):
        assert main(["appendix", "--manifest", str(MANIFESTS / f"{name}.json")]) == 0
        assert capsys.readouterr().out.splitlines() == lines + [
            "divisibility checked: True", "vanishing checked: True"]


def _without_timings(data):
    if isinstance(data, dict):
        return {k: _without_timings(v) for k, v in data.items() if k != "timings"}
    if isinstance(data, list):
        return [_without_timings(v) for v in data]
    return data


PINNED_TRACES = json.loads((Path(__file__).resolve().parent / "data"
                            / "pinned_bound_traces.json").read_text())


class TestCertificatePin:
    """`bound --trace` on the shipped manifests writes exactly the pinned
    certificate: every field but the wall-clock timings."""

    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_trace_matches_pin(self, name, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["bound", "--manifest", str(MANIFESTS / f"{name}.json"),
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert _without_timings(json.loads(trace.read_text())) == PINNED_TRACES[name]


class TestManifestRoundTrip:
    def test_round_trip(self, tmp_path):
        path = write_manifest(tmp_path, f="x*(x-y^2)", g="y",
                              options={"seed": 3})
        m = ProblemManifest.load(path)
        again = ProblemManifest.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()
