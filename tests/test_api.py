"""The package's public names."""
import colourgame


def test_every_public_name_resolves():
    assert len(set(colourgame.__all__)) == len(colourgame.__all__)
    for name in colourgame.__all__:
        assert getattr(colourgame, name) is not None, name
    namespace: dict = {}
    exec("from colourgame import *", namespace)
    assert set(colourgame.__all__) <= set(namespace)
    # A scene is a tuple of ids, a world model a dict and a category its
    # prototype colour: no classes for them.
    for gone in ("ColourCategory", "Percept", "Scene", "WorldModel"):
        assert gone not in colourgame.__all__
        assert not hasattr(colourgame, gone)
    # A colour is read as the tuple it is: no channel or distance accessors,
    # and the engine builds its own colours as plain tuples.
    for gone in ("r", "g", "b", "distance", "clipped", "shifted_towards"):
        assert not hasattr(colourgame.Colour, gone), gone
