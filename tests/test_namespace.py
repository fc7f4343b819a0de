"""The package namespace is lazy: each public name resolves, on first use,
to the object its home module defines."""

import importlib

import pytest

import leafmult


@pytest.mark.parametrize("name", leafmult.__all__)
def test_name_resolves_to_its_home_object(name):
    home = importlib.import_module(f"leafmult.{leafmult._HOME[name]}")
    value = getattr(leafmult, name)
    assert value is getattr(home, name)
    # defined there, not re-exported from elsewhere
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from leafmult import *", namespace)
    for name in leafmult.__all__:
        assert namespace[name] is getattr(leafmult, name)


def test_dir_lists_every_public_name():
    assert set(leafmult.__all__) <= set(dir(leafmult))


def test_unknown_name_names_the_module():
    with pytest.raises(AttributeError, match="'leafmult' has no attribute 'no_such_name'"):
        leafmult.no_such_name  # noqa: B018


def test_germs_reexports_local_membership():
    import leafmult.germs
    import leafmult.localbasis
    assert leafmult.germs.local_membership is leafmult.localbasis.local_membership
