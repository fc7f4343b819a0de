"""Fixtures shared by the test modules."""

import pytest

import leafmult.pairs as pairs


@pytest.fixture
def returned_pairs(monkeypatch) -> list:
    """Record, in order, every pair that make_pair and the three extensions
    return while the test runs.  The pipeline calls them through the pairs
    module, so call them as pairs.<name> too for a pair to be recorded."""
    chain = []

    def recording(real):
        def run(*args, **kwargs):
            out = real(*args, **kwargs)
            chain.append(out if isinstance(out, pairs.NoetherianPair) else out[0])
            return out
        return run

    for name in ("make_pair", "radical_extension", "poisson_extension",
                 "jacobian_extension"):
        monkeypatch.setattr(pairs, name, recording(getattr(pairs, name)))
    return chain
