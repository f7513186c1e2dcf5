"""The run-mode table, and the guard that only modes.py names a run mode."""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from newsdrift.modes import ABLATIONS, INTERVENTIONS, KEPT, TREATMENTS, Kept

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newsdrift"

SPELLINGS = {spelling for name in INTERVENTIONS + ABLATIONS
             for spelling in (name, name.replace("_", "-"))}
# "none" is also the action a reflection records without dissonance resolution
REMOVALS = {spelling for name in ABLATIONS if name != "none"
            for spelling in (name, name.replace("_", "-"))}


def test_each_ablation_removes_one_part_and_no_profile_only_the_reflection_prompts():
    assert KEPT["none"] == Kept() and all(vars(Kept()).values())
    for name in ABLATIONS[1:]:
        assert sum(not getattr(KEPT[name], f.name) for f in fields(Kept)) == 1, name
    assert KEPT["no_profile"] == Kept(profile=False)
    assert [name for name in INTERVENTIONS if TREATMENTS[name].rewrite] == ["debias"]
    assert [name for name in INTERVENTIONS if TREATMENTS[name].critique] == ["devils_advocate"]


def test_the_readme_tables_state_the_records_entry_for_entry():
    readme = (PACKAGE.parents[1] / "README.md").read_text("utf-8")
    rows = {}  # first cell -> the other cells, backticks stripped
    for line in readme.splitlines():
        if line.startswith("| ") and not line.startswith("|-"):
            first, *rest = (cell.strip(" `") for cell in line.strip("|").split("|"))
            rows[first] = rest
    for kind, table in (("intervention", TREATMENTS), ("ablation", KEPT)):
        columns = [f.name for f in fields(next(iter(table.values())))]
        assert rows[kind] == columns
        for name, record in table.items():
            assert rows[name] == ["yes" if getattr(record, c) else "no" for c in columns], name


def _mode_checks(tree: ast.AST) -> list[int]:
    """Lines that compare a value against a mode name, or hold an ablation name."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in REMOVALS:
            lines.add(node.lineno)
        operands = ([node.left, *node.comparators] if isinstance(node, ast.Compare)
                    else [node.value] if isinstance(node, ast.MatchValue) else [])
        lines.update(sub.lineno for operand in operands for sub in ast.walk(operand)
                     if isinstance(sub, ast.Constant) and sub.value in SPELLINGS)
    return sorted(lines)


def test_no_module_but_modes_names_a_run_mode():
    """A module reads a mode's record; prompts.render_debias's "debias" is a file name."""
    checks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "modes.py":
            tree = ast.parse(path.read_text("utf-8"))
            checks.extend(f"{path.name}:{line}" for line in _mode_checks(tree))
    assert checks == []


def test_the_guard_sees_a_mode_check():
    source = ('if config.intervention == "debias": pass\n'
              'x = ablation in ("title-only",)\n'
              'flag = "no_profile"\n'
              'match mode:\n    case "baseline": pass\n'
              'template = _template("debias")\n'
              'action = "none"\n')
    assert _mode_checks(ast.parse(source)) == [1, 2, 3, 5]
