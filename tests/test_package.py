import meanlab


def test_every_export_resolves_once():
    names = meanlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(meanlab, name)] == []
    namespace = {}
    exec("from meanlab import *", namespace)
    assert set(names) <= namespace.keys()
