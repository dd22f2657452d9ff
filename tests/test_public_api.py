"""Package surface: every exported name exists, and none is listed twice."""

import equicount


def test_all_names_resolve_without_duplicates():
    assert len(equicount.__all__) == len(set(equicount.__all__))
    missing = [name for name in equicount.__all__ if not hasattr(equicount, name)]
    assert missing == []
