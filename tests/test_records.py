"""The record classes are plain `__slots__` classes.  The ones that the
package or its tests compare or hash (`MonomialOrder`, `IdealPresentation`,
`GroebnerBasis`, `XSeries`, `YPoly`) compare exactly their value fields;
the six value objects refuse assignment; a mutable default is fresh per
instance; and the constructors keep their defaults."""

from fractions import Fraction

import pytest

from leafmult.extension import ExtensionWitness
from leafmult.foliation import CommutationReport, VectorField
from leafmult.germs import Frame
from leafmult.ideals import (
    GroebnerBasis,
    GroebnerStats,
    IdealPresentation,
    MonomialOrder,
    RadicalCertificate,
)
from leafmult.jets import Jet2
from leafmult.manifest import ProblemManifest
from leafmult.pairs import BoundLedger, LedgerStep, PipelineOptions
from leafmult.poly import parse_polynomial
from leafmult.puiseux import BranchParam
from leafmult.series import QQ, XSeries, YPoly
from leafmult.verify import SuiteReport, TraceCheck

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, ring=XY):
    return parse_polynomial(text, ring)


def series(coeffs, prec):
    return XSeries.make(QQ, coeffs, prec)


# class -> (fields -> instance, base fields, {field name: another value}),
# the other values in the order of the fields: the classes src/ or tests/
# compare or hash, with every compared field
VALUES = {
    MonomialOrder: (MonomialOrder, ("lex",), {"kind": "degrevlex"}),
    IdealPresentation: (IdealPresentation, (XY, (P("x"), P("y^2"))),
                        {"ring": XYZ, "generators": (P("x"),)}),
    GroebnerBasis: (GroebnerBasis, (MonomialOrder("lex"), (P("x"), P("y^2"))),
                    {"order": MonomialOrder("degrevlex"), "basis": (P("x"), P("y"))}),
    XSeries: (XSeries, (QQ, ((0, Fraction(1)), (2, Fraction(3))), 5),
              {"field": object(), "coeffs": ((0, Fraction(1)),), "prec": 6}),
    YPoly: (YPoly, (QQ, (series({0: 1}, 4), series({1: 2}, 4))),
            {"field": object(), "coeffs": (series({0: 1}, 4),)}),
}
# a field that has to be rebuilt to differ: the ring of an ideal is checked
# against its generators
RELATED = {(IdealPresentation, "ring"): lambda args: (XYZ, (P("x", XYZ),))}


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_equal_fields_are_equal_with_equal_hashes(cls):
    make, args, _ = VALUES[cls]
    a, b = make(*args), make(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != args and a != None  # noqa: E711


@pytest.mark.parametrize("cls,name", [pytest.param(cls, name, id=f"{cls.__name__}.{name}")
                                      for cls, (_, _, other) in VALUES.items()
                                      for name in other])
def test_each_compared_field_counts(cls, name):
    make, args, other = VALUES[cls]
    if (cls, name) in RELATED:
        varied = RELATED[cls, name](args)
    else:
        varied = list(args)
        varied[list(other).index(name)] = other[name]
    a, b = make(*args), make(*varied)
    assert getattr(b, name) != getattr(a, name)
    assert a != b and not a == b


def test_order_keys_are_not_compared():
    a, b = MonomialOrder("local"), MonomialOrder("local")
    assert a.key is not b.key and a.heap_key is not b.heap_key
    assert a == b and hash(a) == hash(b)


def test_basis_stats_and_leads_are_not_compared():
    basis = (P("x"), P("y^2"))
    a = GroebnerBasis(MonomialOrder("lex"), basis, GroebnerStats(3, 4))
    b = GroebnerBasis(MonomialOrder("lex"), basis)
    assert a.leads is not b.leads and a.stats.reductions != b.stats.reductions
    assert a == b and hash(a) == hash(b)


FROZEN = [
    (MonomialOrder("lex"), "kind", "local"),
    (IdealPresentation(XY, (P("x"),)), "generators", ()),
    (VectorField(XY, (P("1"), P("0"))), "components", ()),
    (Frame(True, Fraction(2)), "shear", Fraction(0)),
    (XSeries(QQ, (), 3), "prec", 4),
    (YPoly(QQ, ()), "coeffs", ()),
]


@pytest.mark.parametrize("obj,name,value", [pytest.param(*case, id=type(case[0]).__name__)
                                            for case in FROZEN])
def test_value_objects_refuse_assignment(obj, name, value):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        obj.extra = value
    assert getattr(obj, name) is before


def _witness():
    jet = Jet2.from_polynomial(P("t1", ("t1", "t2")), 4)
    return ExtensionWitness(jet, [], 0, 4, jet)


@pytest.mark.parametrize("make,name", [
    (_witness, "cycles"),
    (BoundLedger, "steps"),
    (lambda: ProblemManifest(XY, (), (), ()), "options"),
    (lambda: SuiteReport("suite", 0), "violations"),
], ids=["ExtensionWitness", "BoundLedger", "ProblemManifest", "SuiteReport"])
def test_default_containers_are_fresh(make, name):
    a, b = make(), make()
    assert getattr(a, name) == type(getattr(a, name))()
    assert getattr(a, name) is not getattr(b, name)


def test_defaults():
    opts = PipelineOptions()
    assert (opts.seed, opts.jet_order) == (0, None)
    opts = PipelineOptions(jet_order=7)
    assert (opts.seed, opts.jet_order) == (0, 7)
    assert MonomialOrder().kind == "degrevlex"
    assert IdealPresentation(XY).generators == ()
    stats = GroebnerStats()
    assert (stats.pairs_considered, stats.reductions) == (0, 0)
    cert = RadicalCertificate()
    assert (cert.exponents, cert.capped) == ((), False)
    report = CommutationReport(True)
    assert (report.witness_index, report.witness) == (None, None)
    frame = Frame()
    assert (frame.swap, frame.shear) == (False, 0)
    assert BoundLedger().status == "in-progress"
    assert LedgerStep("radical", (1, 0), {}, (1, 1)).sound is True
    assert TraceCheck(0, "final", True).detail == ""
    assert BranchParam(QQ, 1, QQ.one, XSeries.zero(QQ, 3), (1, 1)).depth == 0
    manifest = ProblemManifest(XY, (), (), ())
    assert (manifest.f, manifest.g, manifest.ideal_generators) == (None, None, ())
    witness = _witness()
    assert (witness.divisibility_checked, witness.vanishing_checked) == (False, False)
