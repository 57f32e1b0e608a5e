"""tools/figures_diff.py: two figure runs compared value by value."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tools import figures_diff  # noqa: E402


def write(path, **figures):
    path.write_text(json.dumps({"benchmarks": [
        {"fullname": name, "extra_info": info}
        for name, info in figures.items()]}))
    return path


def test_equal_runs_report_nothing(tmp_path, capsys):
    base = write(tmp_path / "base.json", fig1={"tput": 1.5, "ios": 3})
    assert figures_diff.main([str(base), str(base)]) == 0
    assert "0 of 2 extra_info values differ" in capsys.readouterr().out


def test_changed_and_one_sided_values_are_listed(tmp_path):
    base = write(tmp_path / "base.json", fig1={"tput": 1.5, "ios": 3})
    head = write(tmp_path / "head.json", fig1={"tput": 1.5, "ios": 4},
                 fig2={"rows": 7})
    out = tmp_path / "diff.md"
    assert figures_diff.main([str(base), str(head), "--out",
                              str(out)]) == 1
    text = out.read_text()
    assert "2 of 3 extra_info values differ" in text
    assert "| `fig1` | `ios` | 3 | 4 |" in text
    assert "| `fig2` | `rows` | — | 7 |" in text
    assert "`tput`" not in text
