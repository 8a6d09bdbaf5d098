import mor2


def test_all_exports_resolve():
    missing = [name for name in mor2.__all__ if not hasattr(mor2, name)]
    assert missing == []
    assert len(set(mor2.__all__)) == len(mor2.__all__)
