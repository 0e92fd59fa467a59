"""The package's public names."""

import hyperfast


def test_every_exported_name_resolves():
    missing = [name for name in hyperfast.__all__ if not hasattr(hyperfast, name)]
    assert missing == []
    assert len(set(hyperfast.__all__)) == len(hyperfast.__all__)
