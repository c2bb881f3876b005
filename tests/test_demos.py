"""Smoke test of the demo scripts and of the README's Python quick start:
each runs to completion."""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_all_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # Demos write their CSV into the working directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["phi_c"] + names["pi_c"] == pytest.approx(
        names["rd"].information_rate(names["traj"].v[-1], names["p"]), abs=1e-6)
    assert names["v_rec"].shape == names["ev"].v_d.shape
    assert all(record["pass"] for record in names["report"])
