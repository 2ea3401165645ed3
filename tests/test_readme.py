"""The README's Python API block and its quick start's `assess` command
run as written, on the worked example."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from trustvet import assess_prediction
from trustvet.cli import EXIT_OK, EXIT_UNTRUSTWORTHY, main, save_ensemble

REPO = Path(__file__).parents[1]


def readme_section(title: str) -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def python_api_block() -> str:
    return readme_section("Python API").split("```python\n", 1)[1].split("```", 1)[0]


def quick_start_assess() -> tuple[list[str], list[str]]:
    """The quick start's `assess` command line, and the output it shows."""
    after = readme_section("Quick start").split("\ntrustvet assess ", 1)[1]
    command, rest = after.split("\n```\n", 1)
    shown = rest.split("```\n", 1)[1].split("```", 1)[0]
    return shlex.split("assess " + command.replace("\\\n", " ")), shown.splitlines()


def test_python_api_block_runs(capsys, vrrp_source, vrrp_native, vrrp_explanation, vrrp_ensemble):
    scope = {"source_text": vrrp_source, "explanation": vrrp_explanation, "ensemble": vrrp_ensemble}
    exec(compile(python_api_block(), "README.md", "exec"), scope)
    want = assess_prediction(vrrp_explanation, vrrp_native, vrrp_ensemble, threshold=0.25)
    assert scope["assessment"] == want
    assert capsys.readouterr().out == f"{want.trust_score} {want.verdict}\n"
    # the worked example's 0.245, the resident lines' weights rescaled to sum to one
    total = sum(score for line, score in vrrp_explanation.entries if line in vrrp_native.nodes)
    assert want.trust_score == pytest.approx(0.245 / total, abs=1e-9)
    assert want.verdict == "trustworthy"


def test_quick_start_assess_prints_what_it_shows(monkeypatch, tmp_path, vrrp_ensemble):
    """The shown lines, `...` aside, come out in order, and the exit code is
    the one the shown verdict makes."""
    args, shown = quick_start_assess()
    models = tmp_path / "models"
    save_ensemble(vrrp_ensemble, models)
    args[args.index("models/")] = str(models)
    monkeypatch.chdir(REPO)
    result = CliRunner().invoke(main, args)
    out = iter(result.stdout.splitlines())
    for line in shown:
        if line.strip() != "...":
            assert line in out, f"{line!r} is not printed after the lines before it"
    verdict = shown[1].rsplit("-> ", 1)[1]
    assert result.exit_code == {"TRUSTWORTHY": EXIT_OK, "UNTRUSTWORTHY": EXIT_UNTRUSTWORTHY}[verdict]
