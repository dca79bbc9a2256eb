"""The package exports: each name is imported from its home module on first use."""

import importlib

import pytest

import omegadec
from omegadec import decomposition, errors, positivity, symmetry


@pytest.mark.parametrize("name", [n for n in omegadec.__all__ if n != "__version__"])
def test_each_export_is_its_home_module_object(name):
    home = importlib.import_module(f"omegadec.{omegadec._HOME[name]}")
    assert getattr(omegadec, name) is getattr(home, name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from omegadec import *", namespace)
    assert set(omegadec.__all__) <= set(namespace)
    assert set(omegadec.__all__) <= set(dir(omegadec))


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        omegadec.no_such_name
    assert str(info.value) == "module 'omegadec' has no attribute 'no_such_name'"


def test_moved_names_are_the_same_objects():
    assert decomposition.DEFAULT_MAX_WORK is errors.DEFAULT_MAX_WORK
    assert symmetry.DEFAULT_MAX_GROUP is errors.DEFAULT_MAX_GROUP
    assert positivity.caratheodory_bound is decomposition.caratheodory_bound
