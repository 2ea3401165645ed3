"""Synthetic corpora and random graphs for the test suite.

All records reuse one worker-function template whose lines 6 and 7 are the
planted vulnerable pair (they open and read a file). Explanation shapes are
chosen so ground truth and trust behavior are known in closed form:

  pure     entries {6,7}          IoU 1.0   every scored line flagged, T = 1.0
  focus    entries {6,7,4}        IoU 2/3   T = w4 + w7 (distance one)
  blur     entries {6,7,4,3}      IoU 1/2   two benign lines contribute
  mixed    entries {6,3}          IoU 1/3   T = (w3 + w6) / 3
  offbase  entries {3,4,9,10}     IoU 0.0   no flagged line at all, T = 0
  hollow   entries {6,7,9}        IoU 2/3   line 9 cannot reach 6 or 7, T = 0

The lookup ensemble flags exactly the planted lines, so these values hold
for any record built from the template.
"""

from __future__ import annotations

import dataclasses
import random

from trustvet.corpus import NON_VULNERABLE, VULNERABLE, CorpusRecord
from trustvet.frontend import pdg_from_source
from trustvet.lineassess.classifier import LookupLineClassifier
from trustvet.pdg import DepKind, Pdg, PdgEdge

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

KIND_ENTRIES = {
    "pure": {6: 0.6, 7: 0.4},
    "focus": {6: 0.45, 7: 0.35, 4: 0.2},
    "blur": {6: 0.3, 7: 0.3, 4: 0.2, 3: 0.2},
    "mixed": {6: 0.4, 3: 0.6},
    "offbase": {3: 0.4, 4: 0.3, 9: 0.2, 10: 0.1},
    "hollow": {6: 0.4, 7: 0.35, 9: 0.25},
}


def worker_source(name: str) -> str:
    return WORKER_TEMPLATE.format(name=name)


def planted_texts() -> frozenset[str]:
    """Normalized texts of the planted lines, as the classifiers see them."""
    pdg = pdg_from_source(worker_source("probe"))
    return frozenset(pdg.line_text[line] for line in sorted(PLANTED_LINES))


def lookup_ensemble(size: int = 3) -> list[LookupLineClassifier]:
    non_benign = planted_texts()
    return [LookupLineClassifier(non_benign=non_benign) for _ in range(size)]


def worker_record(
    name: str,
    kind: str,
    confidence: float,
    rng: random.Random | None = None,
) -> CorpusRecord:
    entries = KIND_ENTRIES[kind]
    scored = []
    for line in sorted(entries):
        score = entries[line]
        if rng is not None:
            score *= rng.uniform(0.9, 1.1)
        scored.append((line, score))
    return CorpusRecord(
        function_id=name,
        source=worker_source(name),
        label=VULNERABLE,
        diff=None,
        vul_lines=tuple(sorted(PLANTED_LINES)),
        explanation=tuple(scored),
        confidence=confidence,
        graph=None,
    )


def planted_corpus() -> tuple[list[CorpusRecord], dict]:
    """Ten records with a known confusion matrix.

    At IoU cutoff 0.5, trust cutoff 0.25, and confidence cutoff 0.5 the
    trust method scores TP=4 FN=1 TN=4 FP=1 and the baseline predicts
    nothing untrustworthy (every confidence is above its cutoff).
    """
    plan = [
        ("offbase", 0.90),
        ("offbase", 0.92),
        ("offbase", 0.94),
        ("offbase", 0.96),
        ("mixed", 0.88),
        ("pure", 0.60),
        ("pure", 0.62),
        ("focus", 0.64),
        ("focus", 0.66),
        ("hollow", 0.58),
    ]
    records = [
        worker_record(f"planted_{i}", kind, conf)
        for i, (kind, conf) in enumerate(plan)
    ]
    expected = {
        "trust": {"tp": 4, "fn": 1, "tn": 4, "fp": 1},
        "naive": {"tp": 0, "fn": 5, "tn": 5, "fp": 0},
        "trust_auc": 22 / 25,
        "naive_auc": 0.0,
        "untrustworthy_count": 5,
    }
    return records, expected


def synthetic_corpus(
    n: int, seed: int, kinds: tuple[str, ...] = ("pure", "focus", "mixed", "offbase")
) -> list[CorpusRecord]:
    """n jittered records cycling through the given shapes."""
    rng = random.Random(seed)
    return [
        worker_record(
            f"worker_{i}",
            kinds[i % len(kinds)],
            confidence=rng.uniform(0.5, 1.0),
            rng=rng,
        )
        for i in range(n)
    ]


def negative_record(name: str, body_lines: list[str]) -> CorpusRecord:
    """A non-vulnerable record contributing candidate negative lines."""
    source = "int {name}(void)\n{{\n{body}\n}}\n".format(
        name=name, body="\n".join("    " + line for line in body_lines)
    )
    return CorpusRecord(
        function_id=name,
        source=source,
        label=NON_VULNERABLE,
        diff=None,
        vul_lines=(),
        explanation=None,
        confidence=None,
        graph=None,
    )


def diff_record() -> CorpusRecord:
    """A vulnerable record whose fix diff names line 4."""
    source = "int f(int n)\n{\n    x = n;\n    y = copy(x, n);\n    return y;\n}\n"
    diff = "@@ -4,1 +4,1 @@\n-    y = copy(x, n);\n+    y = copy_safe(x, n);\n"
    return CorpusRecord(
        function_id="diffed",
        source=source,
        label=VULNERABLE,
        diff=diff,
        vul_lines=(),
        explanation=None,
        confidence=None,
        graph=None,
    )


def commented_record() -> CorpusRecord:
    """A vulnerable record whose fix diff deletes a block comment that spans
    lines 3-5, keeps line 6 and deletes line 7: only line 7 carries code."""
    source = (
        "void f(char *buf)\n{\n    /*\n     * frees the buffer twice\n     */\n"
        "    free(buf);\n    free(buf);\n}\n"
    )
    diff = (
        "@@ -3,5 +3,1 @@\n-    /*\n-     * frees the buffer twice\n-     */\n"
        "     free(buf);\n-    free(buf);\n"
    )
    return dataclasses.replace(diff_record(), function_id="commented", source=source, diff=diff)


# --- random graphs ----------------------------------------------------------------

_VAR_POOL = ("a", "b", "c", "d", "e")


def random_pdg(rng: random.Random, max_nodes: int = 12, max_edges: int = 30) -> Pdg:
    """A small random graph with plausible per-line variable sets."""
    count = rng.randint(2, max_nodes)
    nodes = sorted(rng.sample(range(1, max_nodes + 4), count))
    line_vars = {
        line: frozenset(rng.sample(_VAR_POOL, rng.randint(0, 3))) for line in nodes
    }
    line_text = {line: f"stmt_{line} ;" for line in nodes}
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        src = rng.choice(nodes)
        dst = rng.choice(nodes)
        if rng.random() < 0.5:
            edges.add(PdgEdge(src=src, dst=dst, kind=DepKind.CONTROL))
        else:
            edges.add(
                PdgEdge(src=src, dst=dst, kind=DepKind.DATA, variable=rng.choice(_VAR_POOL))
            )
    return Pdg.build(f"rand_{rng.random():.6f}", nodes, sorted(edges, key=lambda e: e.sort_key()), line_text, line_vars)


# --- random functions -------------------------------------------------------------


_STATEMENT_FORMS = (
    "{a} = {b} + {c};",
    "int {a} = {b} * 2;",
    "{a} += {b};",
    "{a}++;",
    "tab[{a}] = {b};",
    "p->{a} = {b};",
    "use({a}, {b});",
    "{a} = tab[{b}] - p->{c};",
    "{a} = {b}; {c} = {a};",  # two statements on one line
)


def _simple_statement(rng: random.Random) -> str:
    a, b, c = (rng.choice(_VAR_POOL) for _ in range(3))
    return rng.choice(_STATEMENT_FORMS).format(a=a, b=b, c=c)


def c_subset_function(rng: random.Random, max_statements: int = 40) -> str:
    """A random function in the parser's C subset.

    Blocks nest if/else (braced, braceless and else-if), while and for;
    returns may end a block early and leave dead code after them, so the
    CFG has statements without predecessors and branches that skip the
    join.
    """
    lines = ["int fuzz(int a, int b)", "{"]
    budget = max_statements

    def block(depth: int) -> None:
        nonlocal budget
        pad = "    " * (depth + 1)
        for _ in range(rng.randint(1, 5)):
            if budget <= 0:
                return
            budget -= 1
            roll = rng.random()
            var = rng.choice(_VAR_POOL)
            if depth < 4 and roll < 0.15:
                lines.append(f"{pad}if ({var} > {rng.randint(0, 9)}) {{")
                block(depth + 1)
                if rng.random() < 0.5:
                    if rng.random() < 0.3:
                        lines.append(f"{pad}}} else if ({rng.choice(_VAR_POOL)}) {{")
                    else:
                        lines.append(pad + "} else {")
                    block(depth + 1)
                lines.append(pad + "}")
            elif depth < 4 and roll < 0.22:
                lines.append(f"{pad}if ({var}) {_simple_statement(rng)}")
            elif depth < 4 and roll < 0.32:
                lines.append(f"{pad}while ({var} < {rng.randint(1, 9)}) {{")
                block(depth + 1)
                lines.append(pad + "}")
            elif depth < 4 and roll < 0.40:
                lines.append(f"{pad}for (i = 0; i < {var}; i++) {{")
                block(depth + 1)
                lines.append(pad + "}")
            elif roll < 0.47:
                lines.append(f"{pad}return {var};")
            else:
                lines.append(pad + _simple_statement(rng))

    block(0)
    lines.append(f"    return {rng.choice(_VAR_POOL)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DECLARATOR_FORMS = (
    "int *{a} = &{b};",
    "unsigned long {a}[{b}][{c}];",
    "int {a} = {b}, *{c}, {d}[2] = {{0}};",
    "char **{a}, *{b} = {c}[{d}[{a}]];",
    "int {a} = g({b}, {c}), {d};",
    "struct node *{a} = {b}->next;",
    "struct node {a};",
    "struct {a};",
    "const size_t {a} = {b} + sizeof({c});",
    "buf_t *{a}, {b} = {c};",
    "T {a}[{b}];",
    "{a} = {b}++ + --{c};",
    "++{a};",
    "{a}--;",
    "{a} = g({b}).{c};",
    "{a} = g({b})[{c}].{d};",
    "{a} * {b} + {c};",
    "{a}[{b}[{c}]] = {d}[{a}];",
    "p->{a}.f[{b}] -= {c};",
)


def c_declarator_function(rng: random.Random, max_statements: int = 30) -> str:
    """A random function of declarators and def/use forms that
    c_subset_function leaves out: pointer, array, struct and typedef'd
    declarations, prefix and postfix ++/--, members after a call or a
    subscript, and conditions with nested parentheses."""
    lines = ["int decl(int a, int b)", "{"]
    for _ in range(rng.randint(1, max_statements)):
        a, b, c, d = (rng.choice(_VAR_POOL) for _ in range(4))
        roll = rng.random()
        if roll < 0.15:
            lines.append(f"    if ((({a}) > ({b})) && g(({c}))) {{")
        elif roll < 0.25:
            lines.append(f"    while (({a} = next({b}))) {{")
        else:
            lines.append("    " + rng.choice(_DECLARATOR_FORMS).format(a=a, b=b, c=c, d=d))
            continue
        lines.append("        " + rng.choice(_DECLARATOR_FORMS).format(a=b, b=c, c=d, d=a))
        lines.append("    }")
    lines.append(f"    return {rng.choice(_VAR_POOL)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def nested_ifs(depth: int) -> str:
    """A function whose body is `depth` nested braced ifs."""
    return "int f(int a)\n{\n" + "if (a) {\n" * depth + "x = 1;\n" + "}\n" * depth + "}\n"


def nested_subscripts(depth: int) -> str:
    """A function whose line 3 reads b[c[c[...]]], `depth` subscripts deep."""
    return "int f(int a)\n{\n    x = b" + "[c" * depth + "]" * depth + ";\n}\n"
