"""The public namespace: every name in cpnkit.__all__ must resolve, so a
stale export fails here and not at a user's `from cpnkit import *`."""
import cpnkit


def test_every_exported_name_resolves():
    missing = [name for name in cpnkit.__all__ if not hasattr(cpnkit, name)]
    assert cpnkit.__all__ and missing == []
