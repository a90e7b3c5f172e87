import isingpulse


def test_every_export_resolves_once():
    names = isingpulse.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(isingpulse, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from isingpulse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(isingpulse.__all__)
