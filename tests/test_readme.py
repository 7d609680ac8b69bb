"""The README's library example runs as written."""

from __future__ import annotations

import re
import shutil

from conftest import REPO_ROOT, SERVO_CONFIG_PATH


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    (tmp_path / "configs").mkdir()
    shutil.copy(SERVO_CONFIG_PATH, tmp_path / "configs" / "servo.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].startswith("PidGains(kp=")
    assert printed[2] == "False"  # the shipped design fails its envelope check
    assert (tmp_path / "out" / "design_report.txt").exists()
