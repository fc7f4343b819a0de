"""Certified multiplicity bounds for polynomial restrictions to foliation leaves.

The public names below load lazily (PEP 562): `import leafmult` imports no
submodule, and `leafmult.X` or `from leafmult import X` imports X's home
module on first use.  A cold command thus compiles only the layers it runs.
"""

from importlib import import_module

# public name -> home module; drives __getattr__, __dir__ and __all__
_HOME = {name: module for module, names in {
    "errors": "BudgetExceededError CertificateError DomainError HypothesisError "
              "InconclusiveError LeafmultError ParseError RegenerationRequest "
              "RingMismatchError",
    "extension": "ExtensionWitness MonodromicSubset construct_witness enumerate_monodromic",
    "foliation": "CommutationReport FoliationContext VectorField check_commute lie_derivative",
    "germs": "GermSplit PuiseuxBranchSet germ_divide local_multiplicity newton_puiseux "
             "split_common",
    "ideals": "Budget GroebnerBasis IdealPresentation MonomialOrder RadicalCertificate "
              "attempt_radical dimension groebner ideal_power leading_term_ideal "
              "multiplicity_zero_dim normal_form radical_membership",
    "jets": "Jet2",
    "localbasis": "local_membership",
    "manifest": "ProblemManifest load_trace write_trace",
    "pairs": "BoundLedger BoundReport LedgerStep NoetherianPair PipelineOptions "
             "find_transverse_pair isolated_locus_reduction jacobian_extension make_pair "
             "nonisolated_bound poisson_extension radical_extension",
    "poly": "Polynomial gcd parse_polynomial squarefree_part",
    "verify": "run_all_suites run_suite verify_trace",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
