"""Smoke test of the demo scripts: each runs to completion as a script."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[1-4]_*.py"))


def test_all_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # Demos write their CSV into the working directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
