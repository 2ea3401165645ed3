"""The frontend's output bytes, pinned: one sha256 over what the parser gives
for a fixed seeded set of sources, those that parse and those that fail.

A change that is meant to keep behaviour (a faster tokenizer, another
iteration order) must leave DIGEST as it is. A change that is meant to alter
the parser's output on these inputs updates DIGEST and says why.
"""

from __future__ import annotations

import hashlib
import json
import random

from synth import c_subset_function
from trustvet.errors import TrustvetError
from trustvet.frontend import export_raw_graph, merge_line_nodes, parse_function
from trustvet.pdg import pdg_dumps

SEEDS = range(400)

# Lines inserted into a generated function: statements the parser rejects or
# that end it early, and comments, literals and numbers for the lexer.
INSERTS = (
    "else", "return;", ";", "{", "}", "for (;;) ;", "while (x) return 1;",
    '/* note */ x = "a/*b" + \'c\';', "y = 1e-9 + .5; // tail", "/* open", "*/",
    "#define X 1", 's = "#";', "z = 0x1p+2 ? a->b[c] : d.e;",
)


def sources(seed: int) -> list[str]:
    """Six forms of one generated function: as generated, cut at two thirds,
    with ";;" or "x;" after it, with a line dropped, and with two single
    inserted lines."""
    source = c_subset_function(random.Random(seed), 5 + seed % 36)
    rng = random.Random(-1 - seed)
    lines = source.splitlines(keepends=True)
    dropped = rng.randrange(len(lines))
    forms = [
        source,
        "".join(lines[: 2 * len(lines) // 3]),
        source + rng.choice((";;\n", "x;\n")),
        "".join(lines[:dropped] + lines[dropped + 1 :]),
    ]
    for _ in range(2):
        at = rng.randrange(len(lines) + 1)
        forms.append("".join(lines[:at] + [rng.choice(INSERTS) + "\n"] + lines[at:]))
    return forms


def frontend_digest(seeds) -> tuple[str, int, int]:
    """sha256 over export JSON and pdg_dumps of each source that parses, and
    each error's type, message and line; and the counts of each."""
    digest = hashlib.sha256()
    parsed = failed = 0
    for seed in seeds:
        for source in sources(seed):
            try:
                raw = parse_function(source)
            except TrustvetError as exc:
                failed += 1
                record = [type(exc).__name__, str(exc), getattr(exc, "line", None)]
                digest.update(json.dumps(record).encode())
                continue
            parsed += 1
            digest.update(json.dumps(export_raw_graph(raw), sort_keys=True).encode())
            digest.update(pdg_dumps(merge_line_nodes(raw)).encode())
    return digest.hexdigest(), parsed, failed


DIGEST = "48da6fa8f328a0b24808618c252f2baad8ba9ab833f2dcc2163a9b1dc00a0e40"


def test_frontend_bytes_are_unchanged():
    digest, parsed, failed = frontend_digest(SEEDS)
    assert parsed > 500 and failed > 500  # both paths are covered
    assert digest == DIGEST
