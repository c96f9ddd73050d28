import ast
from pathlib import Path


def test_oracles_import_nothing_from_the_package():
    # an oracle that shares code with what it checks shares its bugs too
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    assert [name for name in imported
            if name.split(".")[0] == "waveunpack"] == []
