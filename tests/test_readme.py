"""The README's Python API block and its quick start's `assess` command
run as written, on the worked example, and its `evaluate` command on the
planted corpus."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from clirun import CliRunner
from synth import lookup_ensemble, planted_corpus
from trustvet import assess_prediction
from trustvet.cli import EXIT_OK, EXIT_UNTRUSTWORTHY, main, save_ensemble
from trustvet.corpus import save_corpus

REPO = Path(__file__).parents[1]


def readme_section(title: str) -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def python_api_block() -> str:
    return readme_section("Python API").split("```python\n", 1)[1].split("```", 1)[0]


def quick_start_command(name: str) -> tuple[list[str], list[str]]:
    """The quick start's command line for `name`, and the output it shows."""
    after = readme_section("Quick start").split(f"\ntrustvet {name} ", 1)[1]
    command, rest = after.split("\n```\n", 1)
    shown = rest.split("```\n", 1)[1].split("```", 1)[0]
    return shlex.split(f"{name} " + command.replace("\\\n", " ")), shown.splitlines()


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
    args, shown = quick_start_command("assess")
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


def test_quick_start_evaluate_prints_the_table_it_shows(monkeypatch, tmp_path):
    """On the planted corpus, with an ensemble that flags its planted lines,
    `evaluate` prints the table shown, and `report` renders the same table
    from the saved report."""
    args, shown = quick_start_command("evaluate")
    records, _ = planted_corpus()
    save_corpus(records, tmp_path / "predictions.jsonl")
    save_ensemble(lookup_ensemble(), tmp_path / "models")
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == EXIT_OK, result.output
    assert result.stdout.splitlines() == shown
    again = CliRunner().invoke(main, ["report", "report.json"])
    assert again.exit_code == EXIT_OK, again.output
    assert again.stdout.splitlines() == shown
