"""The public namespace: every name in cpnkit.__all__ must resolve, so a
stale export fails here and not at a user's `from cpnkit import *`."""
import numpy as np
import pytest

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


def callers(names):
    """The functions (methods by their own name) of src/cpnkit that call
    any of names, as module:function."""
    import ast
    from pathlib import Path

    found = set()
    for path in sorted(Path(cpnkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                found |= {f"{path.stem}:{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", getattr(node.func, "attr", None)) in names}
    return found


def test_only_dilation_reads_the_frame():
    # canonicalize is the one door for a foreign dilation: the frame, its
    # residual bound and the representation bound are computed only in
    # the gate that it and commutant share
    assert callers({"canonical_frame", "commutator_bound", "representation_bound"}) \
        == {"dilation:_certified_frame"}
    assert callers({"_certified_frame"}) == {"dilation:canonicalize", "dilation:commutant"}


ENTRY_POINTS = {
    "compress": lambda d, rho: cpnkit.compress(d, np.eye(d.space_dim)),
    "order_equivalence_check": lambda d, rho: cpnkit.order_equivalence_check(
        d, np.eye(d.space_dim), np.eye(d.space_dim)),
    "sample_unit_interval": lambda d, rho: cpnkit.sample_unit_interval(
        d, np.random.default_rng(0)),
    "dilation_to_json": lambda d, rho: cpnkit.serialize.dilation_to_json(d),
    "rn_operator": lambda d, rho: cpnkit.rn_operator(rho, 0.5 * rho, source_dilation=d),
    "intertwiner": lambda d, rho: cpnkit.intertwiner(rho, 0.5 * rho, source_dilation=d),
    "is_pure": lambda d, rho: cpnkit.is_pure(rho, dilation=d),
    "is_extreme": lambda d, rho: cpnkit.is_extreme(rho, dilation=d),
    "nonextreme_decomposition": lambda d, rho: cpnkit.nonextreme_decomposition(rho, dilation=d),
}


@pytest.mark.parametrize("kind", ["gram", "moved", "padded"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_foreign_dilation(entry, kind, monkeypatch):
    # a dilation whose representation is not canonical raises a
    # ValidationError naming canonicalize, read off the representation's
    # kind: no frame is computed
    from test_properties import source_of

    rho = cpnkit.random_cpn_map(cpnkit.make_algebra((2, 1)), 2, 1, 3, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    dil = source_of(kind, cpnkit.dilate(rho), rho, rng)

    def no_frame(*args):
        raise AssertionError("a frame was computed")

    monkeypatch.setattr(cpnkit.dilation, "canonical_frame", no_frame)
    with pytest.raises(cpnkit.ValidationError, match="canonicalize"):
        ENTRY_POINTS[entry](dil, rho)


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
