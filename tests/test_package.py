import ast
from pathlib import Path

import evtraj


def test_no_module_imports_a_private_name():
    # a name that starts with "_" belongs to its own module; a module that
    # needs another's private name needs it made public first
    found = []
    for path in sorted(Path(evtraj.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name != "__version__" and any(part.startswith("_") for part in alias.name.split("."))
                ]
    assert found == []
