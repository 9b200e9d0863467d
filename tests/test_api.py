"""The package's public names: each entry of ``__all__`` is importable."""

import polyslope


def test_all_names_resolve():
    missing = [name for name in polyslope.__all__ if not hasattr(polyslope, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(polyslope.__all__) == len(set(polyslope.__all__))
