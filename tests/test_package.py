import types

import evtraj


def test_all_names_resolve_and_exclude_submodules():
    assert len(set(evtraj.__all__)) == len(evtraj.__all__)
    for name in evtraj.__all__:
        assert not isinstance(getattr(evtraj, name), types.ModuleType), name
