import ast
from pathlib import Path

import riccati_mdp


def test_all_lists_every_imported_name():
    # A name dropped from only one of the import list and __all__ fails here.
    tree = ast.parse(Path(riccati_mdp.__file__).read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert len(set(riccati_mdp.__all__)) == len(riccati_mdp.__all__)
    assert sorted(riccati_mdp.__all__) == sorted(imported)


def test_star_import_binds_all():
    namespace = {}
    exec("from riccati_mdp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(riccati_mdp.__all__)
