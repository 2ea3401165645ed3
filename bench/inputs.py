"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments: the same seed gives
byte-identical inputs. They live beside the benchmark, not in the test
suite, so that editing a test can never shift the benchmark's inputs.

Generated functions use the C subset the built-in parser accepts. They nest
``if``/``while`` blocks no deeper than MAX_DEPTH (real code stays in single
digits), chain assignments through a small pool of variables, and call a
few sinks whose lines are the vulnerable-looking lines the ensemble is
trained to flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from trustvet.corpus import NON_VULNERABLE, VULNERABLE, CorpusRecord
from trustvet.frontend import export_raw_graph, parse_function
from trustvet.pdg import SCHEMA_VERSION

MAX_DEPTH = 6
BLOCK_SHARE = 0.15  # share of statements that open an if/while block
BLOCK_LENGTH = 8  # most statements a block holds before it closes
_VARS = tuple(f"v{i}" for i in range(12))

# {v} is a variable from the pool, so sinks sit on the data flow.
SINKS = (
    'buf = fopen(path, "r");',
    "n = fread(buf, {v});",
    "memcpy(dst, src, {v});",
    "strcpy(dst, src);",
    "dst = malloc({v});",
    "free(buf);",
    "strcat(dst, src);",
)


@dataclass(frozen=True)
class GeneratedFunction:
    name: str
    source: str
    sink_lines: tuple[int, ...]
    plain_lines: tuple[int, ...]  # assignment lines that are not sinks


def _assignment(shape: random.Random, rng: random.Random, names: list[str]) -> str:
    a, b, c = (names[shape.randrange(len(names))] for _ in range(3))
    k = rng.randint(1, 9)
    form = shape.randrange(4)
    if form == 0:
        return f"{a} = {b} + {k};"
    if form == 1:
        return f"{a} = {b} * {k} - {c};"
    if form == 2:
        return f"total = total + {b};"
    return f"{a} = {b};"


def c_function(
    rng: random.Random,
    name: str,
    n_lines: int,
    sink_share: float = 0.1,
    shape: random.Random | None = None,
) -> GeneratedFunction:
    """One function of exactly n_lines source lines (n_lines >= 8).

    The shape generator decides the control structure, which lines are
    sinks or assignments, and which variable slots each line reads and
    writes; rng permutes the variable names and picks the constants. Passing
    a shape seeded by the length alone gives every seed the same dependence
    structure at that length, so cost varies little between seeds.
    """
    shape = shape or rng
    names = list(_VARS)
    rng.shuffle(names)
    lines = [f"int {name}(int seed, char *path, char *src, char *dst)", "{"]
    lines += ["    " + f"{v} = seed + {i};" for i, v in enumerate(names[:3])]
    sinks: list[int] = []
    plain: list[int] = list(range(3, 6))
    budgets: list[int] = []  # statements left in each open block
    # leave room for closing every open block and for the return
    while len(lines) < n_lines - len(budgets) - 2:
        if budgets and budgets[-1] <= 0:
            budgets.pop()
            lines.append("    " * (len(budgets) + 1) + "}")
            continue
        if budgets:
            budgets[-1] -= 1
        indent = "    " * (len(budgets) + 1)
        room = n_lines - len(budgets) - 2 - len(lines)
        roll = shape.random()
        if roll < BLOCK_SHARE and len(budgets) < MAX_DEPTH and room > len(budgets) + 4:
            var, k = names[shape.randrange(len(names))], rng.randint(1, 50)
            if shape.random() < 0.6:
                lines.append(f"{indent}if ({var} > {k}) {{")
            else:
                lines.append(f"{indent}while ({var} < {k}) {{")
            budgets.append(shape.randint(2, BLOCK_LENGTH))
        elif roll < BLOCK_SHARE + sink_share:
            sink = SINKS[shape.randrange(len(SINKS))]
            lines.append(indent + sink.format(v=names[shape.randrange(len(names))]))
            sinks.append(len(lines))
        else:
            lines.append(indent + _assignment(shape, rng, names))
            plain.append(len(lines))
    while budgets:
        budgets.pop()
        lines.append("    " * (len(budgets) + 1) + "}")
    lines.append("    return total;")
    lines.append("}")
    return GeneratedFunction(name, "\n".join(lines) + "\n", tuple(sinks), tuple(plain))


def size_grid(lo: int, hi: int, count: int) -> list[int]:
    """Geometric spread of lengths; fixed, so every seed runs the same sizes."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def spread_order(count: int) -> list[int]:
    """Indices 0..count-1 in bit-reversed order, so that any prefix of a
    size-sorted list samples small and large items evenly."""
    bits = max(1, (count - 1).bit_length())
    keys = sorted(range(1 << bits), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [i for i in keys if i < count]


def _explanation(rng: random.Random, name: str, lines: list[int]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "function_id": name,
        "confidence": round(rng.uniform(0.5, 1.0), 6),
        "entries": [
            {"line": line, "score": round(rng.uniform(0.05, 1.0), 6)} for line in sorted(lines)
        ],
    }


def assess_long_inputs(seed: int, sizes: list[int]) -> list[dict]:
    """Functions judged from source with short explanations: 3 to 5 lines,
    all but one or two of them sink lines.

    Which lines are explained is part of the shape, like the dependence
    structure, and the shape is seeded by the length: inputs of one length
    ask for the same work, whatever the seed. The seed changes names,
    constants, scores and confidences.
    """
    rng = random.Random(seed)
    items = []
    for i, size in enumerate(sizes):
        shape = random.Random(size)
        fn = c_function(rng, f"long_{i}", size, shape=shape)
        k = shape.randint(3, 5)
        flagged = shape.sample(fn.sink_lines, k - 1 if k < 5 else shape.randint(3, 4))
        plain = shape.sample(fn.plain_lines, k - len(flagged))
        items.append({
            "lines": size,
            "source": fn.source,
            "explanation": _explanation(rng, fn.name, flagged + plain),
            "flagged": sorted(flagged),
        })
    return items


def assess_imported_inputs(seed: int, sizes: list[int]) -> list[dict]:
    """Mid-size functions, to be exported as graph documents, with dense
    explanations: about 40 lines, four to six of them sink lines. As in
    assess_long_inputs, the explained lines are part of the shape."""
    rng = random.Random(seed)
    items = []
    for i, size in enumerate(sizes):
        shape = random.Random(size)
        fn = c_function(rng, f"imported_{i}", size, shape=shape)
        k = shape.randint(36, 44)
        flagged = shape.sample(fn.sink_lines, shape.randint(4, 6))
        plain = shape.sample(fn.plain_lines, k - len(flagged))
        items.append({
            "lines": size,
            "source": fn.source,
            "explanation": _explanation(rng, fn.name, flagged + plain),
            "flagged": sorted(flagged),
        })
    return items


def graph_document(source: str) -> dict:
    """The interchange document an external exporter would write for source."""
    return export_raw_graph(parse_function(source))


# --- the planted-shape evaluation corpus ------------------------------------------

WORKER_TEMPLATE = """int {name}(int seed)
{{
    x = seed;
    y = x + 1;
    if (y) {{
        buf = fopen(path, "r");
        n = fread(buf, y);
    }}
    out = n + x;
    return out;
}}
"""

PLANTED_LINES = frozenset({6, 7})

# Explanation shapes over the template, as line -> base score. Ground truth
# and trust score follow from the template's graph in closed form.
SHAPES = {
    "pure": {6: 0.6, 7: 0.4},
    "focus": {6: 0.45, 7: 0.35, 4: 0.2},
    "blur": {6: 0.3, 7: 0.3, 4: 0.2, 3: 0.2},
    "mixed": {6: 0.4, 3: 0.6},
    "offbase": {3: 0.4, 4: 0.3, 9: 0.2, 10: 0.1},
    "hollow": {6: 0.4, 7: 0.35, 9: 0.25},
}


def evaluation_corpus(seed: int, n: int) -> list[CorpusRecord]:
    """n records of the planted template in random shapes, with jittered
    scores and a random confidence."""
    rng = random.Random(seed)
    kinds = sorted(SHAPES)
    records = []
    for i in range(n):
        name = f"worker_{i}"
        kind = kinds[rng.randrange(len(kinds))]
        entries = tuple(
            (line, round(score * rng.uniform(0.9, 1.1), 6))
            for line, score in sorted(SHAPES[kind].items())
        )
        records.append(CorpusRecord(
            function_id=name,
            source=WORKER_TEMPLATE.format(name=name),
            label=VULNERABLE,
            vul_lines=tuple(sorted(PLANTED_LINES)),
            explanation=entries,
            confidence=round(rng.uniform(0.5, 1.0), 6),
        ))
    return records


# --- ingestion corpora ---------------------------------------------------------------


def ingest_corpus(
    seed: int, n_vulnerable: int, n_clean: int, fixed_lines: int, shape_seed: int | None = None
) -> list[CorpusRecord]:
    """Vulnerable functions whose vul_lines are up to fixed_lines of their
    sink lines, then clean functions; a few clean lines copy a sink shape,
    so the BLEU screen has near-copies to drop.

    Given shape_seed, the lengths, control structure and vulnerable lines
    come from it and the seed changes only names and constants, so every
    seed asks for the same work, as in assess_long_inputs."""
    rng = random.Random(seed)
    shape = rng if shape_seed is None else random.Random(shape_seed)
    records = []
    for i in range(n_vulnerable):
        fn = c_function(rng, f"vul_{i}", shape.randint(12, 40), 0.2, shape=shape)
        while not fn.sink_lines:
            fn = c_function(rng, f"vul_{i}", shape.randint(12, 40), 0.2, shape=shape)
        k = shape.randint(1, min(fixed_lines, len(fn.sink_lines)))
        vul = tuple(sorted(shape.sample(fn.sink_lines, k)))
        records.append(CorpusRecord(fn.name, fn.source, VULNERABLE, vul_lines=vul))
    for i in range(n_clean):
        fn = c_function(rng, f"clean_{i}", shape.randint(12, 40), 0.02, shape=shape)
        records.append(CorpusRecord(fn.name, fn.source, NON_VULNERABLE))
    return records
