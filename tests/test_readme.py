"""The README's library example runs as written, the names it documents are
what ``qft_forge`` exports, its command-line section lists the parser's
flags, and its testing section counts the strict expected-failures."""

from __future__ import annotations

import ast
import re
import shutil

import qft_forge
from qft_forge.cli import build_parser

from conftest import REPO_ROOT, SERVO_CONFIG_PATH

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    (tmp_path / "configs").mkdir()
    shutil.copy(SERVO_CONFIG_PATH, tmp_path / "configs" / "servo.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].startswith("PidGains(kp=")
    assert printed[2] == "False"  # the shipped design fails its envelope check
    assert (tmp_path / "out" / "design_report.txt").exists()


def entry_point_names():
    """Backquoted names of the "Lower-level entry points" paragraph, which
    ends with the bound sentinels."""
    paragraph = re.search(r"Lower-level entry points:(.*?)\n\n", README, flags=re.S).group(1)
    return set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))


def test_documented_entry_points_import():
    names = entry_point_names()
    assert {"horowitz_bound", "NO_CONSTRAINT", "INFEASIBLE"} <= names
    assert [name for name in sorted(names) if not hasattr(qft_forge, name)] == []


def test_exports_only_documented_names():
    example = set(re.findall(r"\bqf\.(\w+)\(", README))
    documented = entry_point_names() | example | {"QftError", "__version__"}
    assert example == {"load_config", "generate_templates", "run_command"}
    assert sorted(set(qft_forge.__all__) - documented) == []
    assert sorted(documented - set(qft_forge.__all__)) == []


def test_command_line_section_lists_the_parser_flags():
    section = re.search(r"\n## Command line\n(.*?)\n## ", README, flags=re.S).group(1)
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    flags = {
        flag
        for action in build_parser()._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    assert documented == flags - {"--help"}


NUMBER_WORDS = "zero one two three four five six seven eight nine ten eleven twelve".split()


def strict_xfail_markers() -> int:
    """``xfail(..., strict=True)`` calls in the test modules, found by parsing them."""
    count = 0
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "xfail":
                strict = [k.value for k in node.keywords if k.arg == "strict"]
                count += any(isinstance(v, ast.Constant) and v.value is True for v in strict)
    return count


def test_testing_section_counts_the_strict_xfails():
    word = re.search(r"(\w+) entries are strict expected-failures", README).group(1)
    assert NUMBER_WORDS.index(word.lower()) == strict_xfail_markers()
