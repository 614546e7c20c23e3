import derivpoly


def test_every_export_resolves():
    """Each name in ``__all__`` is an attribute of the package, so a deleted
    function cannot stay listed as an export."""
    missing = [name for name in derivpoly.__all__
               if not hasattr(derivpoly, name)]
    assert missing == []
