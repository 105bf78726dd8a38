import reciprange


def test_every_exported_name_resolves():
    assert [name for name in reciprange.__all__ if not hasattr(reciprange, name)] == []
