"""Structural guards on the source: CatalyticPair is the one owner of the joint test."""

import ast
from pathlib import Path

import supercat

SRC = Path(supercat.__file__).resolve().parent

#: The private CatalyticPair reads allowed outside catalysis.py, by module:
#: the interval oracle probes membership on its own tabled forms.
ALLOWED = {("oracle.py", "_member")}


def private_pair_attributes(source: str) -> set:
    """Names of the private attributes defined in the body of CatalyticPair."""
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == "CatalyticPair")
    return {node.name for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")}


def joint_target_reads(tree: ast.AST) -> list:
    """Line numbers where a joint target is indexed or unpacked.

    A joint target is a joint_target(...) call, or a name bound to one: the
    conventional name target, or any name assigned from such a call.
    """
    def is_target_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "joint_target")

    names = {"target"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_target_call(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))

    def is_target(node):
        return is_target_call(node) or (isinstance(node, ast.Name) and node.id in names)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_target(node.value):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Assign) and is_target(node.value)
              and any(isinstance(t, (ast.Tuple, ast.List, ast.Starred)) for t in node.targets)):
            lines.append(node.lineno)
    return lines


def ownership_violations(src: Path) -> list:
    """(module, line, what) for every read outside catalysis.py of a private
    CatalyticPair attribute not in ALLOWED, or of a joint target's parts."""
    private = private_pair_attributes((src / "catalysis.py").read_text())
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "catalysis.py":
            continue
        tree = ast.parse(path.read_text())
        found += [(path.name, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in private
                  and (path.name, node.attr) not in ALLOWED]
        found += [(path.name, line, "joint target") for line in joint_target_reads(tree)]
    return found


def test_private_attributes_are_found():
    private = private_pair_attributes((SRC / "catalysis.py").read_text())
    assert {"_member", "_sides", "_segments", "_segments_a"} <= private


def test_only_catalysis_reads_the_pair_internals():
    assert ownership_violations(SRC) == []


def test_detects_a_private_read_and_an_indexed_target(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "supercatalysis.py", "a") as f:
        f.write("\n\ndef _peek(pair, c):\n"
                "    scaled = pair._sides\n"
                "    sums = pair.joint_target(c)[1]\n"
                "    target = pair.joint_target(c)\n"
                "    q, sums, *_ = target\n"
                "    return scaled, sums, q\n")
    found = ownership_violations(tmp_path)
    assert sorted(what for _, _, what in found) == ["_sides", "joint target", "joint target"]
    assert {module for module, _, _ in found} == {"supercatalysis.py"}
