import jtvsampling


def test_star_import_resolves_every_public_name():
    # a name pruned from its module but left in __all__ breaks the star import
    namespace = {}
    exec("from jtvsampling import *", namespace)
    names = jtvsampling.__all__
    assert len(set(names)) == len(names)
    assert all(namespace[name] is getattr(jtvsampling, name) for name in names)
