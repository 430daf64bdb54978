import besselsum


def test_every_exported_name_resolves():
    missing = [name for name in besselsum.__all__ if not hasattr(besselsum, name)]
    assert missing == []
    assert len(set(besselsum.__all__)) == len(besselsum.__all__)
