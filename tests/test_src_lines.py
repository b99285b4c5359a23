"""scripts/src_lines.py splits every src/ line into exactly one kind."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_lines(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py"), *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_parts_sum_to_the_total():
    counts = src_lines()
    total = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (ROOT / "src").rglob("*.py"))
    assert counts["total"] == total
    assert counts["code"] + counts["docstring"] + counts["comment"] + counts["blank"] == total
    assert min(counts.values()) > 0


def test_each_kind_of_line(tmp_path):
    (tmp_path / "sample.py").write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code with a comment\n"
        '    """One line."""\n'
        '    return """a string\n'
        '    that is not a docstring"""\n',
        encoding="utf-8")
    assert src_lines(str(tmp_path)) == {"total": 9, "code": 3, "docstring": 4,
                                        "comment": 1, "blank": 1}
