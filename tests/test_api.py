"""The package's public names."""
import colourgame


def test_every_public_name_resolves():
    assert len(set(colourgame.__all__)) == len(colourgame.__all__)
    for name in colourgame.__all__:
        assert getattr(colourgame, name) is not None, name
    namespace: dict = {}
    exec("from colourgame import *", namespace)
    assert set(colourgame.__all__) <= set(namespace)
    # A scene is a tuple of ids and a world model a dict: no classes for them.
    for gone in ("Percept", "Scene", "WorldModel"):
        assert gone not in colourgame.__all__
        assert not hasattr(colourgame, gone)
