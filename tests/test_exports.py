"""The package's public names: blockzero.__all__ against what
blockzero/__init__.py imports, so a removed name cannot linger as a
dangling export."""

import ast

import blockzero


def test_all_names_resolve_and_every_public_import_is_listed():
    listed = blockzero.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(blockzero, name)] == []
    with open(blockzero.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(name for name in imported if not name.startswith("_")) == sorted(listed)
    namespace = {}
    exec("from blockzero import *", namespace)
    assert set(listed) <= namespace.keys()
