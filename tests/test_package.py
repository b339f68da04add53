import refnet


def test_every_exported_name_resolves():
    assert [n for n in refnet.__all__ if not hasattr(refnet, n)] == []
