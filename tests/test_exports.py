"""The package's public names: every entry of levbounds.__all__ resolves,
once; a stale entry breaks `from levbounds import *`."""

import levbounds
from levbounds import kernel, optimizer, polyalg, proportions


def test_every_exported_name_resolves():
    missing = [name for name in levbounds.__all__ if not hasattr(levbounds, name)]
    assert not missing


def test_no_duplicate_exports():
    assert len(levbounds.__all__) == len(set(levbounds.__all__))


def test_the_exact_layer_lives_in_polyalg():
    # the float engine reads no exact moments: kernel defines neither name,
    # and none of the engine's modules binds one
    assert levbounds.moments is polyalg.moments
    assert levbounds.MomentTable is polyalg.MomentTable
    for module in (kernel, proportions, optimizer):
        assert not {"moments", "MomentTable"} & set(vars(module)), module.__name__
