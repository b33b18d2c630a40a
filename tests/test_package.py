import inspect

import radialflow


def test_all_lists_every_public_name_once():
    exported = radialflow.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(radialflow, name), name
    public = {
        name
        for name, value in vars(radialflow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(exported)
