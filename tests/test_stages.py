"""The stage table: every stage compiles, round-trips through a bundle,
encodes, joins and decodes through its one record."""

import ast
import json
from pathlib import Path

import pytest

from tilejep.harness import run_yes_experiment
from tilejep.stages import STAGES
from tilejep.textio import FormatError, read_bundle, write_bundle
from tilejep.tiling import TilingProblem
from tilejep.unary import canonical_B

T1 = TilingProblem(1)


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_bundle_keeps_rules_and_verdict(tmp_path, name):
    stage = STAGES[name]
    cls = stage.compile(T1)
    write_bundle(tmp_path, cls)
    loaded = read_bundle(tmp_path)
    assert [r.name for r in loaded.rules] == [r.name for r in cls.rules]
    g = stage.encode(canonical_B(1, T1))
    assert loaded.check(g).status == cls.check(g).status == "pass"


def test_unknown_stage_in_a_manifest_is_a_format_error(tmp_path):
    write_bundle(tmp_path, STAGES["unary"].compile(T1))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["meta"]["stage"] = "colored-pure"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="unknown stage"):
        read_bundle(tmp_path)


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_yes_experiment_succeeds(name):
    rep = run_yes_experiment(T1, 1, name)
    assert rep.status == "success", rep.to_text()


def _names_a_stage(node) -> bool:
    """A stage-name constant, or a tuple, list or set holding one."""
    if isinstance(node, ast.Constant):
        return node.value in STAGES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_names_a_stage, node.elts))
    return False


def test_only_the_stage_table_compares_stage_names():
    # a comparison against a stage name is a per-stage branch outside the
    # table; `experiment no` is unary-only until the encoded stages have
    # NO verdicts of their own
    allowed = {("cli.py", "cmd_experiment")}
    root = Path(__file__).resolve().parents[1] / "src" / "tilejep"
    found, excused = [], set()
    for path in sorted(root.glob("*.py")):
        if path.name == "stages.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):  # outer functions come first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(map(_names_a_stage, [node.left, *node.comparators])):
                where = (path.name, owner.get(node, "<module>"))
                if where in allowed:
                    excused.add(where)
                else:
                    found.append(f"{path.name}:{node.lineno} {where[1]}")
    assert found == []
    assert excused == allowed  # the scan sees the one comparison it excuses
