"""The mock lexicon's file format, and the one module that knows its rule for a scored word."""

import ast
import json
import re
from pathlib import Path

import pytest

from newsdrift.errors import ValidationError
from newsdrift.mock import WORD, MockLexicon, load_lexicon

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newsdrift"


@pytest.mark.parametrize("positive, negative, named", [
    ({"Growth": 1.0}, {"growth": 2.0}, "['Growth', 'growth']"),
    ({"growth": 1.0, "GROWTH": 1.5}, {}, "['GROWTH', 'growth']"),
    ({"café": 1.0}, {}, "['café']"),
    ({"trade war": 1.0}, {}, "['trade war']"),
    ({}, {"well-being": 1.0}, "['well-being']"),
    ({"": 1.0}, {}, "['']"),
], ids=["case-apart-across-lists", "case-apart-in-one-list", "non-ascii",
        "two-tokens", "hyphenated", "empty"])
def test_load_refuses_words_that_are_not_one_distinct_scored_token(tmp_path, positive, negative,
                                                                   named):
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps({"positive": positive, "negative": negative}), "utf-8")
    with pytest.raises(ValidationError, match=re.escape(named)) as refused:
        load_lexicon(path)
    assert str(path) in str(refused.value)


def test_a_lexicon_keeps_its_words_lower_cased_in_one_signed_map():
    packaged = load_lexicon()
    assert len(packaged.signed) == 33
    assert all(WORD.fullmatch(word) for word in packaged.signed)
    lexicon = MockLexicon({"Growth": 1.0}, {"CRISIS": 0.5})
    assert lexicon.signed == {"growth": 1.0, "crisis": -0.5}
    assert sorted(vars(lexicon)) == ["_scores", "signed"]


def test_the_rule_for_a_scored_word_is_known_to_mock_py_alone():
    """No module but mock.py reads a lexicon's ``signed`` map or ``WORD``, and
    gateway.py defines or imports no lexicon or sentiment name."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "mock.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("signed", "WORD")
                    or isinstance(node, ast.Name) and node.id == "WORD"
                    or isinstance(node, ast.alias) and node.name == "WORD"):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []
    names = []
    for node in ast.walk(ast.parse((PACKAGE / "gateway.py").read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(target.id for target in node.targets if isinstance(target, ast.Name))
    assert "Gateway" in names and "inputs" in names
    assert [name for name in names if re.search(r"lexicon|sentiment|mock|WORD", name, re.I)] == []
