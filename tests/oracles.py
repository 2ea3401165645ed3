"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, deliberately avoiding the
package's own algorithms: BLEU counts n-grams with Counter, reachability
uses boolean matrix powers, AUC counts discordant pairs, and threshold
search sweeps every candidate. The parser's dependence analyses are checked
against its earlier fixed-point versions: full post-dominator sets
intersected until stable, and reaching definitions over sets of
(variable, statement) pairs; the tokenizer against its earlier scan, which
tried every operator in turn, and the source cleaner against its earlier
per-character state machine; a line's surface is read off the oracle's
tokens; the line merge's edge step against its earlier version, which
deduplicated on a hand-built key tuple, and its line texts against the
rule it states; the feature views
against their earlier extractors, which tokenized the line themselves and
built every feature name as an f-string, and a linear score against the sum
it was first written as, each weight found through the vocabulary. Slow and
obvious beats fast and shared.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from trustvet.corpus import NON_VULNERABLE
from trustvet.errors import ImportSchemaError, UnsupportedConstructError
from trustvet.frontend.lexer import (
    CHAR_LITERAL,
    STRING_LITERAL,
    Token,
    TokenKind,
    normalize_line,
    tokenize_line,
)
from trustvet.frontend.parser import _EXIT
from trustvet.lineassess.features import FeatureView
from trustvet.pdg import DepKind, Pdg, PdgEdge

EPSILON = 1e-9


# --- BLEU ------------------------------------------------------------------------


def _grams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def oracle_bleu(candidate, references, max_order=4):
    """Textbook smoothed BLEU for token sequences (strings compared as-is)."""
    if not references:
        return 0.0
    log_sum = 0.0
    orders_used = 0
    for n in range(1, max_order + 1):
        cand = _grams(candidate, n)
        total = sum(cand.values())
        if total == 0:
            continue
        best = Counter()
        for ref in references:
            ref_grams = _grams(ref, n)
            for gram, count in ref_grams.items():
                if count > best[gram]:
                    best[gram] = count
        clipped = sum(min(count, best[gram]) for gram, count in cand.items())
        log_sum += math.log((clipped + EPSILON) / (total + EPSILON))
        orders_used += 1
    if orders_used == 0:
        return 0.0
    geo = math.exp(log_sum / orders_used)
    c = len(candidate)
    lengths = sorted(references, key=lambda ref: (abs(len(ref) - c), len(ref)))
    r = len(lengths[0])
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * geo


# --- reachability ----------------------------------------------------------------


def _index(pdg: Pdg):
    """Every line of the graph, nodes and edge endpoints alike, and its row."""
    lines = set(pdg.nodes)
    for e in pdg.edges:
        lines.update((e.src, e.dst))
    nodes = sorted(lines)
    return nodes, {line: i for i, line in enumerate(nodes)}


def _bool_closure(matrix: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure via repeated boolean multiplication."""
    n = matrix.shape[0]
    reach = np.eye(n, dtype=bool)
    frontier = matrix.copy()
    for _ in range(n):
        new = reach | frontier
        if (new == reach).all():
            break
        reach = new
        frontier = (frontier @ matrix).astype(bool)
    return reach

def oracle_vulnerable_edges(pdg: Pdg, benign: frozenset, mode: str = "direct"):
    """Evaluate the vulnerable-dependency rule per edge, matrix-power style."""
    nodes, idx = _index(pdg)
    n = len(nodes)
    any_adj = np.zeros((n, n), dtype=bool)
    data_adj = np.zeros((n, n), dtype=bool)
    for e in pdg.edges:
        any_adj[idx[e.src], idx[e.dst]] = True
        if e.kind is DepKind.DATA:
            data_adj[idx[e.src], idx[e.dst]] = True
    any_reach = _bool_closure(any_adj)
    data_reach = _bool_closure(data_adj)
    out = []
    for e in pdg.edges:
        suspects = [
            nodes[j]
            for j in range(n)
            if any_reach[idx[e.dst], j] and nodes[j] not in benign
        ]
        if not suspects:
            continue
        if e.kind is DepKind.CONTROL:
            out.append(e)
            continue
        hit = any(e.variable in pdg.line_vars.get(z, frozenset()) for z in suspects)
        if not hit and mode == "transitive_flow":
            hit = any(data_reach[idx[e.dst], idx[z]] for z in suspects)
        if hit:
            out.append(e)
    return tuple(out)


def oracle_distances(pdg: Pdg, vulnerable, starts, targets):
    """Shortest path lengths over the vulnerable subgraph by matrix powers.

    Self-loop edges are left out, matching the convention that a loop never
    contributes to a distance. Returns {(start, target): hops or inf}.
    """
    nodes, idx = _index(pdg)
    n = len(nodes)
    adj = np.zeros((n, n), dtype=bool)
    for e in vulnerable:
        if e.src != e.dst:
            adj[idx[e.src], idx[e.dst]] = True
    dist = np.full((n, n), math.inf)
    np.fill_diagonal(dist, 0.0)
    power = np.eye(n, dtype=bool)
    for k in range(1, n + 1):
        power = (power @ adj).astype(bool)
        mask = power & np.isinf(dist)
        dist[mask] = k
    return {
        (s, t): float(dist[idx[s], idx[t]])
        for s in starts
        for t in targets
    }


def oracle_nearest(pdg: Pdg, vulnerable, weights, benign, entries, line):
    """Nearest non-benign explanation line of the graph, from oracle_distances.

    Among the targets at the fewest hops, the heavier weight wins, then the
    smaller line. Returns (hops, target, target weight), or (inf, None, None)
    when no target is reachable.
    """
    targets = [t for t, _ in entries if t in pdg.nodes and t not in benign]
    hops = oracle_distances(pdg, vulnerable, [line], targets)
    best = (math.inf, None, None)
    for t in targets:
        d, w = hops[(line, t)], weights.get(t, 0.0)
        if math.isinf(d):
            continue
        if (
            best[1] is None
            or d < best[0]
            or (d == best[0] and w > best[2])
            or (d == best[0] and w == best[2] and t < best[1])
        ):
            best = (d, t, w)
    return best


# --- metrics ---------------------------------------------------------------------


def oracle_metrics(truth, preds):
    tp = sum(1 for t, p in zip(truth, preds) if t and p)
    fp = sum(1 for t, p in zip(truth, preds) if not t and p)
    tn = sum(1 for t, p in zip(truth, preds) if not t and not p)
    fn = sum(1 for t, p in zip(truth, preds) if t and not p)
    out = {}
    out["accuracy"] = (tp + tn) / (tp + fp + tn + fn) if tp + fp + tn + fn else None
    out["precision"] = tp / (tp + fp) if tp + fp else None
    out["sensitivity"] = tp / (tp + fn) if tp + fn else None
    out["specificity"] = tn / (tn + fp) if tn + fp else None
    p, s = out["precision"], out["sensitivity"]
    if p is None or s is None:
        out["f1"] = None
    elif p + s == 0:
        out["f1"] = 0.0
    else:
        out["f1"] = 2 * p * s / (p + s)
    if out["sensitivity"] is None or out["specificity"] is None:
        out["gmean"] = None
    else:
        out["gmean"] = math.sqrt(out["sensitivity"] * out["specificity"])
    return out


def oracle_auc(scores, labels, lower_is_positive=True):
    """Pairwise concordance count; ties between classes score half."""
    pos = [s for s, lab in zip(scores, labels) if lab]
    neg = [s for s, lab in zip(scores, labels) if not lab]
    if not pos or not neg:
        return None
    good = 0.0
    for p in pos:
        for q in neg:
            better = p < q if lower_is_positive else p > q
            if better:
                good += 1.0
            elif p == q:
                good += 0.5
    return good / (len(pos) * len(neg))


def oracle_best_threshold(scores, labels):
    """Exhaustive G-mean sweep over midpoints, smallest threshold on ties."""
    distinct = sorted(set(scores))
    best = None
    for lo, hi in zip(distinct, distinct[1:]):
        threshold = (lo + hi) / 2.0
        preds = [s < threshold for s in scores]
        m = oracle_metrics(labels, preds)
        if m["sensitivity"] is None or m["specificity"] is None:
            gmean = 0.0
        else:
            gmean = math.sqrt(m["sensitivity"] * m["specificity"])
        if best is None or gmean > best[1]:
            best = (threshold, gmean)
    return best


# --- dependence analyses -----------------------------------------------------------


def oracle_post_dominators(all_sids: list[int], succ: dict[int, set[int]]) -> dict[int, set[int]]:
    nodes = all_sids + [_EXIT]
    universe = set(nodes)
    pdom: dict[int, set[int]] = {n: set(universe) for n in nodes}
    pdom[_EXIT] = {_EXIT}
    changed = True
    while changed:
        changed = False
        for n in all_sids:
            succs = succ.get(n, set())
            if succs:
                new = set.intersection(*(pdom[s] for s in succs))
            else:
                new = set()
            new.add(n)
            if new != pdom[n]:
                pdom[n] = new
                changed = True
    return pdom


def oracle_immediate_pdom(pdom: dict[int, set[int]]) -> dict[int, int | None]:
    ipdom: dict[int, int | None] = {}
    for n, doms in pdom.items():
        strict = doms - {n}
        if not strict:
            ipdom[n] = None
            continue
        # the nearest strict post-dominator has the largest pdom set
        ipdom[n] = max(strict, key=lambda d: (len(pdom[d]), d))
    return ipdom


def oracle_control_dependence(
    stmts, succ: dict[int, set[int]]
) -> set[tuple[int, int]]:
    """Pairs (predicate sid, dependent sid) via the classic post-dominance
    frontier walk."""
    all_sids = [s.sid for s in stmts]
    pdom = oracle_post_dominators(all_sids, succ)
    ipdom = oracle_immediate_pdom(pdom)
    deps: set[tuple[int, int]] = set()
    for a in all_sids:
        succs = succ.get(a, set())
        if len(succs) < 2:
            continue
        stop = ipdom.get(a)
        for s in succs:
            runner = s
            seen: set[int] = set()
            while runner != stop and runner != _EXIT and runner not in seen:
                seen.add(runner)
                deps.add((a, runner))
                nxt = ipdom.get(runner)
                if nxt is None:
                    break
                runner = nxt
    return deps


def oracle_reaching_definitions(
    stmts, succ: dict[int, set[int]]
) -> set[tuple[int, int, str]]:
    """Def-use chains as (def sid, use sid, variable)."""
    by_sid = {s.sid: s for s in stmts}
    defs_of_var: dict[str, set[int]] = {}
    for s in stmts:
        for v in s.defs:
            defs_of_var.setdefault(v, set()).add(s.sid)
    preds: dict[int, set[int]] = {}
    for a, bs in succ.items():
        for b in bs:
            preds.setdefault(b, set()).add(a)
    gen = {s.sid: {(v, s.sid) for v in s.defs} for s in stmts}
    out_sets: dict[int, set[tuple[str, int]]] = {s.sid: set(gen[s.sid]) for s in stmts}
    in_sets: dict[int, set[tuple[str, int]]] = {s.sid: set() for s in stmts}
    work = [s.sid for s in stmts]
    while work:
        sid = work.pop(0)
        new_in = set()
        for p in preds.get(sid, set()):
            if p in out_sets:
                new_in |= out_sets[p]
        in_sets[sid] = new_in
        stmt = by_sid[sid]
        killed = {(v, d) for (v, d) in new_in if v in stmt.defs}
        new_out = gen[sid] | (new_in - killed)
        if new_out != out_sets[sid]:
            out_sets[sid] = new_out
            for nxt in succ.get(sid, set()):
                if nxt != _EXIT and nxt not in work:
                    work.append(nxt)
    chains: set[tuple[int, int, str]] = set()
    for s in stmts:
        for v in s.uses:
            for (var, d) in in_sets[s.sid]:
                if var == v:
                    chains.add((d, s.sid, v))
    return chains


# --- tokenizer and source cleaning -------------------------------------------------

_OPERATORS = [
    ">>=", "<<=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ".",
]
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def _scan_number(text, i):
    # C-style preprocessing number: digits, identifier chars, dots, and a
    # sign directly after an exponent marker ("1e-9", "0x1p+3").
    n = len(text)
    j = i + 1
    while j < n:
        ch = text[j]
        if ch in _IDENT_CONT or ch == ".":
            j += 1
        elif ch in "+-" and text[j - 1] in "eEpP":
            j += 1
        else:
            break
    return j


def _scan_string(text, i, quote):
    n = len(text)
    j = i + 1
    while j < n:
        if text[j] == "\\" and j + 1 < n:
            j += 2
            continue
        if text[j] == quote:
            return j + 1
        j += 1
    return n  # unterminated: consume to end of line


# the C99 keywords but _Bool, _Complex and _Imaginary, spelled out here so
# that a wrong table in the lexer cannot agree with this one
ORACLE_C_KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default", "do",
        "double", "else", "enum", "extern", "float", "for", "goto", "if",
        "inline", "int", "long", "register", "restrict", "return", "short",
        "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
        "unsigned", "void", "volatile", "while",
    }
)


def oracle_tokenize_line(text):
    """The lexer's former scan, which tries every operator with startswith,
    longest first."""
    keywords = ORACLE_C_KEYWORDS
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n\f\v":
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            break
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end < 0:
                break
            i = end + 2
            continue
        if ch == '"':
            i = _scan_string(text, i, '"')
            tokens.append(Token(TokenKind.LITERAL, STRING_LITERAL))
            continue
        if ch == "'":
            i = _scan_string(text, i, "'")
            tokens.append(Token(TokenKind.LITERAL, CHAR_LITERAL))
            continue
        if ch in "0123456789" or (ch == "." and i + 1 < n and text[i + 1] in "0123456789"):
            j = _scan_number(text, i)
            tokens.append(Token(TokenKind.LITERAL, text[i:j]))
            i = j
            continue
        if ch in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = TokenKind.KEYWORD if word in keywords else TokenKind.IDENTIFIER
            tokens.append(Token(kind, word))
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(TokenKind.OPERATOR, op))
                i += len(op)
                break
        else:
            tokens.append(Token(TokenKind.PUNCT, ch))
            i += 1
    return tokens


def oracle_line_surface(code):
    """A line's surface from its definition, on the oracle's tokens: the
    token texts joined by single spaces, and the identifiers whose next
    token is not the "(" punctuation."""
    tokens = oracle_tokenize_line(code)
    names = set()
    for i, tok in enumerate(tokens):
        called = i + 1 < len(tokens) and tokens[i + 1] == Token(TokenKind.PUNCT, "(")
        if tok.kind is TokenKind.IDENTIFIER and not called:
            names.add(tok.text)
    return " ".join(tok.text for tok in tokens), frozenset(names)


SPLICE = "line splice ('\\' at the end of a line) is not supported"


def oracle_clean_source(source: str) -> list[str]:
    """The parser's former per-character cleaner: blank out block comments
    (which may span lines) and reject preprocessor lines, returning the
    cleaned source line by line. It has since taken C's line splice: a
    '//' comment whose line ends in a backslash runs on through the next
    line, as in oracle_code_lines, and a cleaned line that ends in a
    backslash, after trailing spaces and tabs, is refused after the '#'
    checks."""
    lines = [line[:-1] if line[-1:] == "\r" else line for line in source.split("\n")][: -1 if source[-1:] in ("", "\n") else None]
    cleaned: list[list[str]] = []
    in_block = False
    in_line_comment = False  # spliced on from the line before
    for lineno, line in enumerate(lines, start=1):
        out: list[str] = []
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if in_block:
                if ch == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    out.append("  ")
                    i += 2
                    continue
                out.append(" ")
                i += 1
                continue
            if in_line_comment:
                out.append(" ")
                i += 1
                continue
            if ch == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                out.append("  ")
                i += 2
                continue
            if ch == "/" and i + 1 < n and line[i + 1] == "/":
                in_line_comment = True
                out.append("  ")
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                out.append(ch)
                i += 1
                while i < n:
                    out.append(line[i])
                    if line[i] == "\\" and i + 1 < n:
                        out.append(line[i + 1])
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                continue
            out.append(ch)
            i += 1
        in_line_comment = in_line_comment and line.endswith("\\")
        text = "".join(out)
        stripped = text.lstrip()
        if stripped.startswith("#"):
            raise UnsupportedConstructError("preprocessor directives are not supported", lineno)
        if "#" in text:
            raise UnsupportedConstructError("'#' outside a comment or literal", lineno)
        if text.rstrip(" \t").endswith("\\"):
            raise UnsupportedConstructError(SPLICE, lineno)
        cleaned.append(text)
    return cleaned


def oracle_code_lines(source: str) -> list[tuple[str, str]]:
    """Each line of source, cut as split_lines cuts it, with its comments
    blanked by a per-character scan, block comments spanning lines, and a
    '//' comment running on through each next line while its lines end in
    a backslash (C's line splice); and a copy of it whose literal contents
    are blanked too. The blanked line keeps its literals as they are."""
    lines = [line[:-1] if line[-1:] == "\r" else line for line in source.split("\n")][: -1 if source[-1:] in ("", "\n") else None]
    blanked: list[tuple[str, str]] = []
    in_block = False
    in_line_comment = False  # spliced on from the line before
    for line in lines:
        out: list[str] = []
        code: list[str] = []  # out, with literal contents blanked
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if in_block or in_line_comment:
                if in_block and ch == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    out.append("  ")
                    code.append("  ")
                    i += 2
                    continue
                out.append(" ")
                code.append(" ")
                i += 1
                continue
            if ch == "/" and i + 1 < n and line[i + 1] in "*/":
                in_block = line[i + 1] == "*"
                in_line_comment = not in_block
                out.append("  ")
                code.append("  ")
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                out.append(ch)
                code.append(ch)
                i += 1
                while i < n:
                    if line[i] == "\\" and i + 1 < n:
                        out.append(line[i : i + 2])
                        code.append("  ")
                        i += 2
                        continue
                    out.append(line[i])
                    code.append(" ")
                    i += 1
                    if line[i - 1] == quote:
                        break
                continue
            out.append(ch)
            code.append(ch)
            i += 1
        in_line_comment = in_line_comment and line.endswith("\\")
        blanked.append(("".join(out), "".join(code)))
    return blanked


def oracle_clean_source_literals_blanked(source: str) -> list[str]:
    """oracle_clean_source with its '#' fault corrected. Both '#' checks
    read oracle_code_lines' copy of each line whose literal contents are
    blanked, so a '#' inside a string or character literal (printf("#%d",
    a)) is accepted. The cleaned lines it returns are the former
    reference's, literals kept as they are. It also holds the parser's later
    rules: white space by str.isspace other than " \t\r\n\f\v" is refused
    in that copy, after the '#' checks, and then a cleaned line that ends
    in a backslash, after trailing spaces and tabs, as a line splice."""
    cleaned: list[str] = []
    for lineno, (text, masked) in enumerate(oracle_code_lines(source), start=1):
        if masked.lstrip().startswith("#"):
            raise UnsupportedConstructError("preprocessor directives are not supported", lineno)
        if "#" in masked:
            raise UnsupportedConstructError("'#' outside a comment or literal", lineno)
        foreign = [ch for ch in masked if ch.isspace() and ch not in " \t\r\n\f\v"]
        if foreign:
            raise UnsupportedConstructError(
                f"white space U+{ord(foreign[0]):04X} outside a comment or literal", lineno
            )
        if text.rstrip(" \t").endswith("\\"):
            raise UnsupportedConstructError(SPLICE, lineno)
        cleaned.append(text)
    return cleaned


# --- line merge ----------------------------------------------------------------------


def oracle_line_edges(raw, line_of: dict[int, int]) -> tuple[PdgEdge, ...]:
    """The merge's earlier edge step: re-point statement edges at lines,
    keep the first edge per (src line, dst line, kind, variable) key, and
    sort by PdgEdge.sort_key."""
    seen = set()
    edges = []
    for edge in raw.edges:
        if edge.src not in line_of or edge.dst not in line_of:
            raise ImportSchemaError(f"edge {edge.src}->{edge.dst} references an unknown node id")
        key = (line_of[edge.src], line_of[edge.dst], edge.kind, edge.variable)
        if key in seen:
            continue
        seen.add(key)
        edges.append(PdgEdge(key[0], key[1], edge.kind, edge.variable))
    edges.sort(key=PdgEdge.sort_key)
    return tuple(edges)


def oracle_merged_lines(nodes) -> tuple[dict[int, str], dict[int, frozenset[str]]]:
    """Each line's text and variables by the merge's definition: the text
    of the first of the line's longest codes, in node order, and the union
    of the variables of all its nodes."""
    by_line: dict[int, list] = {}
    for node in nodes:
        by_line.setdefault(node.line, []).append(node)
    text, names = {}, {}
    for line, members in by_line.items():
        longest = max(len(node.code) for node in members)
        text[line] = next(node.surface[0] for node in members if len(node.code) == longest)
        names[line] = frozenset(name for node in members for name in node.surface[1])
    return text, names


# --- feature views -------------------------------------------------------------------


def _token_ngram_features(text: str) -> dict[str, float]:
    texts = [t.text for t in tokenize_line(text)]
    feats: Counter = Counter()
    for t in texts:
        feats[f"1:{t}"] += 1.0
    for a, b in zip(texts, texts[1:]):
        feats[f"2:{a} {b}"] += 1.0
    return dict(feats)


def _char_ngram_features(text: str) -> dict[str, float]:
    feats: Counter = Counter()
    for order in (3, 4, 5):
        for i in range(len(text) - order + 1):
            feats[f"{order}:{text[i : i + order]}"] += 1.0
    return dict(feats)


def _syntax_shape_features(text: str) -> dict[str, float]:
    tokens = tokenize_line(text)
    kinds = [t.kind.value for t in tokens]
    feats: Counter = Counter()
    for k in kinds:
        feats[f"k1:{k}"] += 1.0
    for a, b in zip(kinds, kinds[1:]):
        feats[f"k2:{a} {b}"] += 1.0
    for t in tokens:
        if t.kind is TokenKind.KEYWORD:
            feats[f"kw:{t.text}"] = 1.0
    feats["len"] = len(text) / 80.0
    feats["ntok"] = len(tokens) / 16.0
    return dict(feats)


_ORACLE_EXTRACTORS = {
    FeatureView.TOKEN_NGRAM: _token_ngram_features,
    FeatureView.CHAR_NGRAM: _char_ngram_features,
    FeatureView.SYNTAX_SHAPE: _syntax_shape_features,
}


def oracle_extract_features(view: FeatureView, text: str) -> dict[str, float]:
    """The earlier extract_features. Item order is part of the answer: a
    linear score sums the features in dict order."""
    return _ORACLE_EXTRACTORS[view](text)


def oracle_score(clf, text: str) -> float:
    """A LinearLineClassifier's score as first written: the bias, plus
    weights[vocabulary[name]] * value for each known feature of the line's
    normal form in item order, through the sigmoid that cannot overflow."""
    z = clf.bias
    for name, value in oracle_extract_features(clf.view, normalize_line(text)).items():
        if name in clf.vocabulary:
            z += clf.weights[clf.vocabulary[name]] * value
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def oracle_design_matrix(texts, view: FeatureView) -> tuple[dict[str, int], np.ndarray]:
    """Training's vocabulary and matrix as first built, in two passes over
    the rows: one collects every feature name of each text's normal form and
    numbers the names in sorted order; the other fills X, one line per text,
    a cell at a time."""
    names = sorted({name for text in texts for name in oracle_extract_features(view, normalize_line(text))})
    vocabulary = {name: idx for idx, name in enumerate(names)}
    X = np.zeros((len(texts), len(vocabulary)))
    for row, text in enumerate(texts):
        for name, value in oracle_extract_features(view, normalize_line(text)).items():
            X[row, vocabulary[name]] = value
    return vocabulary, X


# --- line dataset ----------------------------------------------------------------------


def oracle_candidate_negatives(records, n: int, seed: int) -> list[tuple[str, int, str]]:
    """(function id, line, normal form) of each sampled negative, from the
    pool first built by tokenizing every line of every clean function, its
    comments blanked by oracle_code_lines, and keeping those with a token
    other than a delimiter and no token that is white space (U+00A0, say:
    the white space that the parser refuses)."""
    pool = []
    for record in records:
        if record.label != NON_VULNERABLE:
            continue
        for lineno, (text, _) in enumerate(oracle_code_lines(record.source), start=1):
            tokens = tokenize_line(text)
            if any(t.kind is not TokenKind.PUNCT for t in tokens) and not any(t.text.isspace() for t in tokens):
                pool.append((record.function_id, lineno, " ".join(t.text for t in tokens)))
    return random.Random(seed).sample(pool, min(n, len(pool)))
