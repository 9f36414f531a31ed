"""The package's public names: each one in __all__ resolves, and none twice."""

import flagint


def test_every_exported_name_resolves_once():
    assert len(flagint.__all__) == len(set(flagint.__all__))
    missing = [name for name in flagint.__all__ if not hasattr(flagint, name)]
    assert missing == []
