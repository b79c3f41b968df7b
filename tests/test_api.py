"""The package's public surface: every exported name exists."""

import clawdel


def test_every_name_in_all_resolves():
    assert [name for name in clawdel.__all__ if not hasattr(clawdel, name)] == []
    assert len(set(clawdel.__all__)) == len(clawdel.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from clawdel import *", namespace)
    assert set(clawdel.__all__) <= set(namespace)
