"""The package's public names: every entry of levbounds.__all__ resolves,
once; a stale entry breaks `from levbounds import *`."""

import levbounds


def test_every_exported_name_resolves():
    missing = [name for name in levbounds.__all__ if not hasattr(levbounds, name)]
    assert not missing


def test_no_duplicate_exports():
    assert len(levbounds.__all__) == len(set(levbounds.__all__))

