"""The README's Python API block runs as written, on the worked example."""

from __future__ import annotations

from pathlib import Path

import pytest

from trustvet import assess_prediction


def python_api_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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
