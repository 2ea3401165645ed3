"""The five calls that build and judge graphs hold the cyclic garbage
collector off while they run (trustvet.collector.nogc): each turns it back
on when it returns or raises if the caller had it on, no collection starts
inside a long parse or verdict, and none of them makes a reference cycle
that the collector would have had to find."""

from __future__ import annotations

import dataclasses
import gc
import inspect
import sys
import threading

import pytest

import trustvet.assess
import trustvet.evaluate
import trustvet.frontend
import trustvet.frontend.graphio as graphio
from synth import lookup_ensemble, planted_corpus
from trustvet.assess import assess_prediction
from trustvet.config import RunConfig
from trustvet.errors import ContractError, ImportSchemaError, ParseError, SchemaError
from trustvet.evaluate import run_evaluation
from trustvet.frontend import ImportedGraph, RawDepGraph, export_raw_graph, import_raw_graph, parse_function, pdg_from_source
from trustvet.pdg import DepKind, Explanation

TRUNCATED = "int f(int a)\n{\n    if (a"
CONFIG = RunConfig(trust_threshold=0.25, conf_threshold=0.5)


def long_function(groups: int) -> str:
    """A function of 5 * groups + 4 lines: five-line groups of an if block,
    a call and an assignment over seven variables, so that most lines reach
    many others by data edges."""
    body = []
    for i in range(groups):
        a, b, c, d = (f"v{(i + k) % 7}" for k in (0, 1, 3, 5))
        body += [
            f"    if ({a} > {i}) {{",
            f"        {b} = {a} + {c};",
            f"        use({d}, p->f[{a}]);",
            "    }",
            f"    {d} = {c} * {i};",
        ]
    return "int f(int v0, int v1)\n{\n" + "\n".join(body) + "\n    return v0;\n}\n"


LONG = long_function(200)  # 1004 lines


def records_with_skips():
    """The planted corpus and three records it skips: a truncated body, a
    preprocessor line, and a graph export with an unknown edge end."""
    records, _ = planted_corpus()
    first = records[0]
    return records + [
        dataclasses.replace(first, function_id="truncated", source=TRUNCATED),
        dataclasses.replace(first, function_id="define", source="#define X 1\nint f(int a)\n{\n}\n"),
        dataclasses.replace(
            first, function_id="dangling", graph={"function": "f", "nodes": [], "edges": [{"src": 1, "dst": 2}]}
        ),
    ]


@pytest.fixture
def calls(vrrp_source, vrrp_native, vrrp_explanation, vrrp_ensemble):
    """Each paused call: one run that returns, one that raises and the
    error it raises, and a function it calls by module attribute, where a
    probe can see whether the collector is on."""
    document = export_raw_graph(parse_function(vrrp_source))
    imported = import_raw_graph(document)
    dangling = ImportedGraph(RawDepGraph("f", [], [(1, 2, DepKind.CONTROL, None)]), ())
    records = records_with_skips()
    return {
        "pdg_from_source": (
            lambda: pdg_from_source(vrrp_source),
            lambda: pdg_from_source(TRUNCATED),
            ParseError,
            (trustvet.frontend, "parse_function"),
        ),
        "import_raw_graph": (
            lambda: import_raw_graph(document),
            lambda: import_raw_graph({"function": "f", "nodes": {}, "edges": []}),
            ImportSchemaError,
            (graphio, "line_entry"),
        ),
        "ImportedGraph.to_pdg": (
            imported.to_pdg,
            dangling.to_pdg,  # a graph no import makes: an edge end that is no node
            KeyError,
            (graphio, "_line_edges"),
        ),
        "assess_prediction": (
            lambda: assess_prediction(vrrp_explanation, vrrp_native, vrrp_ensemble, 0.25),
            lambda: assess_prediction(vrrp_explanation, vrrp_native, vrrp_ensemble, 0.25, mode="nonsense"),
            ContractError,
            (trustvet.assess, "build_weighted_pdg"),
        ),
        "run_evaluation": (
            lambda: run_evaluation(records, lookup_ensemble(), CONFIG),
            lambda: run_evaluation(records, lookup_ensemble(), CONFIG, taus=(2.0,)),
            SchemaError,
            (trustvet.evaluate, "evaluate_record"),
        ),
    }


@pytest.fixture
def collector_state():
    """Restores the collector's setting that the test found."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


NAMES = ["pdg_from_source", "import_raw_graph", "ImportedGraph.to_pdg", "assess_prediction", "run_evaluation"]


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("name", NAMES)
def test_the_call_runs_paused_and_restores_the_callers_setting(name, enabled, calls, collector_state, monkeypatch):
    returns, raises, error, (module, attribute) = calls[name]
    inner = getattr(module, attribute)
    seen = []

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attribute, probe)
    (gc.enable if enabled else gc.disable)()
    returns()
    assert seen and not any(seen)
    assert gc.isenabled() is enabled
    with pytest.raises(error):
        raises()
    assert gc.isenabled() is enabled


def test_two_threads_parsing_at_once_leave_the_collector_on(collector_state):
    """Each thread finds the collector on or off as the other left it; the
    one that found it on turns it back on at its exit, whichever ends last."""
    gc.enable()
    source = long_function(40)
    expected = pdg_from_source(source)
    start = threading.Barrier(2)
    results: list = []

    def parse_a_few():
        start.wait(timeout=30)
        for _ in range(5):
            results.append(pdg_from_source(source))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=parse_a_few) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 10
    assert gc.isenabled()


def collections_during(function, *args) -> int:
    """How many collections start while the body of function (the code it
    wraps, if any) runs on args, from a collector just emptied, so that none
    was already due. The young collection the paused call defers starts
    after it has turned the collector back on, in whatever allocates next,
    which under a line tracer is the tracer, inside the wrapper's frame."""
    body = inspect.unwrap(function).__code__
    started = []

    def count(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not body:
            frame = frame.f_back
        if frame is not None:
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        function(*args)
    finally:
        gc.callbacks.remove(count)
    return len(started)


def test_no_collection_starts_inside_a_long_parse_or_its_verdict(collector_state):
    """A parse of about 1000 lines makes thousands of tracked containers
    that live until it returns; unpaused, the collector walks them again
    and again."""
    gc.enable()
    assert collections_during(pdg_from_source.__wrapped__, LONG) > 5
    assert collections_during(pdg_from_source, LONG) == 0

    pdg = pdg_from_source(LONG)
    explanation = Explanation("f", 0.9, tuple((line, 1.0 / line) for line in range(3, 1000, 25)))
    ensemble = lookup_ensemble()
    assert collections_during(assess_prediction, explanation, pdg, ensemble, 0.25) == 0
    assert gc.isenabled()


def test_the_paused_calls_leave_no_reference_cycle(calls, collector_state):
    """The premise of the pause: with the collector off throughout, the five
    calls, returning and raising, and an evaluate run with skips leave the
    collector nothing to free. A cycle made inside a paused call would live
    until the next collection after it returns."""
    records = records_with_skips()
    ensemble = lookup_ensemble()

    def run_all():
        for returns, raises, error, _ in calls.values():
            returns()
            try:
                raises()
            except error:
                pass
        report = run_evaluation(records, ensemble, RunConfig())
        assert report.skipped == {"graph": 3}
        pdg_from_source(LONG)

    run_all()  # first use imports modules and fills caches, which do hold cycles
    gc.collect()
    gc.disable()
    run_all()
    assert gc.collect() == 0
