"""Shared fixtures: the worked-example function, its graph, its explanation;
and a guard that fails any test leaving the cyclic garbage collector off."""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from trustvet.frontend import import_raw_graph, pdg_from_source
from trustvet.lineassess.classifier import LookupLineClassifier
from trustvet.pdg import explanation_from_dict

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fails a test that found the cyclic garbage collector on and left it
    off, as a paused call that forgot to restore it would (trustvet.collector),
    and turns it back on for the tests after it."""
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector off")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def vrrp_source() -> str:
    return (DATA_DIR / "vrrp_like.c").read_text()


@pytest.fixture(scope="session")
def vrrp_native(vrrp_source):
    """The graph the built-in parser produces (includes two extra control
    edges on lines 8 and 9 that the curated fixture leaves out)."""
    return pdg_from_source(vrrp_source)


@pytest.fixture(scope="session")
def vrrp_fixture():
    """The curated six-edge graph the worked example is stated against, read
    from an interchange document as `assess --import-pdg` reads it."""
    return import_raw_graph(json.loads((DATA_DIR / "vrrp_graph.json").read_text())).to_pdg()


@pytest.fixture(scope="session")
def vrrp_explanation():
    return explanation_from_dict(
        json.loads((DATA_DIR / "vrrp_explanation.json").read_text())
    )


@pytest.fixture(scope="session")
def vrrp_ensemble(vrrp_fixture):
    """Three voters that flag exactly line 7 (the fopen call)."""
    flagged = frozenset({vrrp_fixture.line_text[7]})
    return [LookupLineClassifier(non_benign=flagged) for _ in range(3)]
