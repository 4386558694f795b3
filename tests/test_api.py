"""The public namespace: every name in cpnkit.__all__ must resolve, so a
stale export fails here and not at a user's `from cpnkit import *`."""
import cpnkit


def test_every_exported_name_resolves():
    missing = [name for name in cpnkit.__all__ if not hasattr(cpnkit, name)]
    assert cpnkit.__all__ and missing == []


def test_no_unused_module_level_imports():
    # no linter is a dependency: every name a module imports at top level
    # must be read somewhere in that module (the package's re-exports aside)
    import ast
    from pathlib import Path

    unused = []
    for path in sorted(Path(cpnkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


def test_no_orphaned_private_helpers():
    # every module-level _-prefixed function or class must be read somewhere
    # in the package, so a helper a refactor leaves behind fails here
    import ast
    from pathlib import Path

    defined, used = [], set()
    for path in sorted(Path(cpnkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined and [f"{f}: {name}" for f, name in defined if name not in used] == []


def test_only_dilation_reads_the_frame():
    # CommutantBasis.lift and .rows own the frame layout: no other module
    # reads an attribute named frame (frame_residual is another name)
    import ast
    from pathlib import Path

    readers = []
    for path in sorted(Path(cpnkit.__file__).parent.glob("*.py")):
        if path.name != "dilation.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr == "frame"]
    assert readers == []


def test_radon_reads_no_images():
    # compressions, gates and order checks decide on frame blocks: radon
    # never forms an H x H product with the matrix-unit images
    import ast
    from pathlib import Path

    tree = ast.parse((Path(cpnkit.__file__).parent / "radon.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "images"] == []


def test_intertwiner_is_the_one_lift_into_a_target():
    # the disjointness witness reads frame rows: radon.intertwiner is the one
    # function that assembles an operator between two dilations, and
    # extension_witness reads no images and lifts nothing
    import ast
    from pathlib import Path

    targeted, witness = [], None
    for path in sorted(Path(cpnkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name == "extension_witness":
                witness = fn
            targeted += [f"{path.name}:{fn.name}" for node in ast.walk(fn)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr == "lift" and len(node.args) + len(node.keywords) > 1]
    assert targeted == ["radon.py:intertwiner"]
    names = {node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
             for node in ast.walk(witness)}
    assert not names & {"images", "lift", "element", "partial_isometry"}
