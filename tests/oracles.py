"""Independent brute-force oracles used by the unit and acceptance suites.

Everything here recomputes results straight from definitions, sharing no
code path with the implementations it checks. The whole-file scoring
oracles splice a text into the blanked file and run the whole-file
completion tool and linter on it, where scoring reads one task analysis.
The trigger-path oracles recompute from the whole prefix, or the whole
text, what generation keeps up to date as the prefix grows. The train-stage
oracles build the vocabulary from texts, each lexed anew, and count every
(position, order) into each table one call at a time, hashing every token
of every description afresh. The evaluate oracle runs the stages in the
order they once ran, generating for every task before scoring any, each
stage with contexts of its own.
"""

import itertools
import math
import random
import re
from collections import Counter

import numpy as np

from mpgen.analysis.complete import CaretContext, TaskAnalysis, TaskContext
from mpgen.analysis.insert import indent_body, insert
from mpgen.analysis.lint import lint_check
from mpgen.analysis.scope import ModuleScope, name_assignments
from mpgen.decode import GenerationConfig
from mpgen.lm.ngram import load_model, train
from mpgen.lm.tokenizer import detokenize, split_identifier, token_strings
from mpgen.lm.vocab import BOS_ID, COMP_ID, CONTROL_IDS, EOS_ID, RESERVED_TOKENS, Vocab, build_vocab
from mpgen.metrics import evaluate_pairs, ground_truth
from mpgen.minilang import nodes
from mpgen.minilang import tokens as tk
from mpgen.minilang.lexer import Diagnostic, lex
from mpgen.minilang.parser import extract_functions, parse
from mpgen.minilang.tokens import LexToken
from mpgen.pipeline import derive_tasks, load_tasks, run_model_over_tasks, trace_summary
from mpgen.repo import SOURCE_SUFFIX, CaretPosition
from mpgen.trigger import insert_triggers


def naive_levenshtein(a: str, b: str) -> int:
    rows = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            rows[i][j] = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return rows[len(a)][len(b)]


def scan_classify_caret(repo, caret) -> CaretContext:
    """Caret context from the list of every non-indentation token left of it."""
    repo.validate_caret(caret)
    toks, _ = repo.lex(caret.file)
    left = [
        t
        for t in toks
        if (t.line, t.column) < (caret.line, caret.column)
        and t.kind not in (tk.INDENT, tk.DEDENT)
    ]
    if left and left[-1].kind == tk.PUNCTUATOR and left[-1].text == ".":
        if len(left) >= 2 and left[-2].kind == tk.IDENTIFIER:
            if len(left) >= 3 and left[-3].kind == tk.PUNCTUATOR and left[-3].text == ".":
                return CaretContext("attribute", receiver=None)  # chained: a.b.
            return CaretContext("attribute", receiver=left[-2].text)
        return CaretContext("attribute", receiver=None)
    return CaretContext("scope")


def latest_enclosing_function(repo, file, line):
    """The latest-starting function or method whose lines (up to its reserved
    body-start line when the body is empty) hold the given line."""
    module = repo.module(file)
    functions = module.functions + [m for cls in module.classes for m in cls.methods]
    for fn in sorted(functions, key=lambda fn: fn.line, reverse=True):
        if fn.line <= line <= max(fn.end_line, fn.body_start_line):
            return fn
    return None


def eager_module_scopes(repo) -> dict:
    """Every file's `ModuleScope`, built at once for the whole repository."""
    modules = {}
    for path in repo.paths():
        mod = repo.module(path)
        imports = {}
        for imp in mod.imports:
            target = imp.module + SOURCE_SUFFIX
            if target not in repo.files:
                imports.update(dict.fromkeys(imp.bound_names, ("unresolved",)))
            elif imp.names:
                imports.update((n, ("name", target, n)) for n in imp.names)
            else:
                imports[imp.module] = ("module", target)
        classes = {cls.name: cls for cls in mod.classes}
        members = (
            {fn.name for fn in mod.functions}
            | set(classes)
            | {stmt.target.id for stmt in name_assignments(mod.body)}
        )
        modules[path] = ModuleScope(mod, members, classes, imports)
    return modules


# --- the lexer, one regex match per lexeme ------------------------------------

_LEXEME_RE = re.compile(
    "(?P<marker>" + "|".join(map(re.escape, tk.MARKER_TEXTS)) + ")"
    + r"""
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<number>[0-9]+(?:\.[0-9]+)?)
    | (?P<string>"[^"\n]*")
    | (?P<unterminated>"[^"\n]*)
    | (?P<op>==|!=|[<>+\-*/=])
    | (?P<punct>[(),.:])
    | (?P<space>\ +)
    """,
    re.VERBOSE,
)
_LEXEME_KIND = {
    "marker": tk.MARKER,
    "name": tk.IDENTIFIER,
    "number": tk.NUMBER,
    "string": tk.STRING,
    "unterminated": tk.ERROR,
    "op": tk.OPERATOR,
    "punct": tk.PUNCTUATOR,
    "space": None,
}


def match_loop_lex(source: str):
    """`lex` as one `match` per lexeme: a position no lexeme matches holds an
    illegal character."""
    out, diags = [], []
    indents = [0]
    last_line = 0
    last_col = 0
    for lineno, raw in enumerate(source.split("\n"), start=1):
        stripped = raw.lstrip(" ")
        if stripped == "":
            continue
        indent = len(raw) - len(stripped)
        if indent > indents[-1]:
            indents.append(indent)
            out.append(LexToken(tk.INDENT, "", lineno, 0))
        elif indent < indents[-1]:
            n = 0
            while indents[-1] > indent:
                indents.pop()
                out.append(LexToken(tk.DEDENT, "", last_line, last_col + 1 + n))
                n += 1
            if indents[-1] != indent:
                diags.append(Diagnostic("unindent does not match any outer level", lineno, 0))
                indents.append(indent)
                out.append(LexToken(tk.INDENT, "", lineno, 0))
        pos = indent
        while pos < len(raw):
            m = _LEXEME_RE.match(raw, pos)
            if m is None:
                ch = raw[pos]
                diags.append(Diagnostic(f"illegal character {ch!r}", lineno, pos))
                out.append(LexToken(tk.ERROR, ch, lineno, pos))
                pos += 1
                continue
            kind = _LEXEME_KIND[m.lastgroup]
            if kind is not None:
                text = m.group()
                if kind == tk.IDENTIFIER and text in tk.KEYWORDS:
                    kind = tk.KEYWORD
                elif kind == tk.ERROR:
                    diags.append(Diagnostic("unterminated string literal", lineno, pos))
                out.append(LexToken(kind, text, lineno, pos))
            pos = m.end()
        out.append(LexToken(tk.NEWLINE, "", lineno, len(raw)))
        last_line = lineno
        last_col = len(raw)
    n = 0
    while len(indents) > 1:
        indents.pop()
        out.append(LexToken(tk.DEDENT, "", last_line, last_col + 1 + n))
        n += 1
    return out, diags


# --- the train stage, text by text and bump by bump -----------------------------

def text_corpus_vocab(repos) -> Vocab:
    """The vocabulary over (name, repository) pairs from texts: every file's
    text and every docstring's description, each lexed anew, then the
    reserved tokens and the sorted distinct rest."""
    texts = []
    for _name, repo in repos:
        for path in repo.paths():
            texts.append(repo.text(path))
            texts.extend(
                f.description for f in extract_functions(parse(repo.text(path), path))
                if f.docstring is not None
            )
    seen = set()
    for text in texts:
        seen.update(token_strings(text))
    return Vocab(tokens=RESERVED_TOKENS + tuple(sorted(seen - set(RESERVED_TOKENS))))


def fnv1a_bucket(description, vocab, buckets) -> int:
    """The description's bucket: 32-bit FNV-1a of each token's UTF-8 bytes,
    summed modulo 2**32, modulo the bucket count."""
    total = 0
    for i in description:
        h = 0x811C9DC5
        for byte in vocab.token(i).encode("utf-8"):
            h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
        total = (total + h) & 0xFFFFFFFF
    return total % buckets


def bump_train_tables(dataset, order, vocab, buckets) -> tuple[dict, dict]:
    """`train`'s bucket tables and global pool, counted one bump per
    (position, order, table) into one table per (bucket, context length),
    then regrouped into one table per bucket and the pool."""
    tables = {}

    def bump(bucket, k, ctx, tok):
        table = tables.setdefault((bucket, k), {})
        counts = table.setdefault(ctx, {})
        counts[tok] = counts.get(tok, 0) + 1

    for desc, target in dataset:
        bucket = fnv1a_bucket(desc, vocab, buckets)
        for i in range(1, len(target)):
            for k in range(order):
                if k > i:
                    break
                bump(bucket, k, tuple(target[i - k:i]), target[i])
                bump("pool", k, tuple(target[i - k:i]), target[i])
    regrouped = {}
    for (bucket, _k), table in tables.items():
        regrouped.setdefault(bucket, {}).update(table)
    pool = regrouped.pop("pool")
    return regrouped, pool


# --- the trigger path, from the whole prefix -----------------------------------

def detokenized_body(prefix, vocab) -> str:
    """The partial function a prefix of model token ids spells: every id but
    the control ids, detokenized at once."""
    return detokenize([t for t in prefix if t not in CONTROL_IDS], vocab)


def words_spell_a_keyword(vocab) -> bool:
    """Whether some keyword, cut into two or more pieces at some set of
    cuts, has every piece among the vocabulary's word tokens."""
    words = {token for kind, token in map(vocab.item, range(vocab.size)) if kind == tk.IDENTIFIER}
    for keyword in tk.KEYWORDS:
        for n in range(1, len(keyword)):
            for cuts in itertools.combinations(range(1, len(keyword)), n):
                bounds = (0, *cuts, len(keyword))
                if all(keyword[a:b] in words for a, b in zip(bounds, bounds[1:])):
                    return True
    return False


def trigger_cache_key(prefix, vocab):
    """The generation cache's key at the trigger ending prefix, or None, from
    a scan of the whole prefix. The caret's line is the last line the text
    shows: control, indent and dedent items render nothing, and trailing
    newlines close that line but are dropped from the text. The count takes
    the `=` and `else` items before the caret line's closing newline, or
    before its start while it is open. There is no key when that line holds
    an `else` or an unterminated string, or is open and ends in an operand,
    or when the receiver run before its trailing `.` starts after a number,
    or when the vocabulary's word tokens can spell a keyword."""
    if words_spell_a_keyword(vocab):
        return None
    shown = [
        vocab.item(t) for t in prefix[:-1]  # not the trigger
        if t not in CONTROL_IDS and vocab.item(t)[0] not in (tk.INDENT, tk.DEDENT)
    ]
    closed = bool(shown) and shown[-1][0] == tk.NEWLINE
    while shown and shown[-1][0] == tk.NEWLINE:
        shown.pop()
    start = max((i + 1 for i, (kind, _) in enumerate(shown) if kind == tk.NEWLINE), default=0)
    line = shown[start:]
    n = sum(1 for _, s in (shown if closed else shown[:start]) if s in ("=", "else"))
    if any(s == "else" or (k == tk.STRING and not re.fullmatch(r'"[^"]*"', s)) for k, s in line):
        return None
    if not line:
        return ("scope", n)
    last_kind, last = line[-1]
    if not closed and (last_kind in (tk.IDENTIFIER, tk.NUMBER, tk.STRING) or last == ")"):
        return None
    if last != ".":
        return ("scope", n)
    j = len(line) - 2
    run = []
    while j >= 0 and line[j][0] == tk.IDENTIFIER:
        run.append(line[j][1])
        j -= 1
    if j >= 0 and line[j][0] == tk.NUMBER:
        return None
    receiver = "".join(reversed(run))
    if not run or (j >= 0 and line[j][1] == "."):
        return ("attr-chain", receiver, n)
    return ("attr", receiver, n)


def whole_text_analysis(snapshot, context, body) -> TaskAnalysis:
    """`context.analyse(body)` from one lex and parse of the whole text: the
    head, read off the blanked file of snapshot at the context's caret (the
    class header, the def line and the docstring at their own line numbers,
    every other line above the caret blank), with the body spliced in at the
    caret."""
    pos = context.pos
    lines = snapshot.text(pos.file).split("\n")
    def_line = pos.line - 2  # blanking puts the caret two lines below the def
    keep = {def_line, def_line + 1} | {
        cls.line
        for cls in snapshot.module(pos.file).classes
        if any(m.line == def_line for m in cls.methods)
    }
    head = "".join((lines[n - 1] if n in keep else "") + "\n" for n in range(1, pos.line))
    text = head + " " * pos.column + indent_body(body, pos.column)
    lexed = lex(text)
    module = parse(text, pos.file, lexed=lexed)
    (func,) = extract_functions(module)
    written = module.classes[0].attributes if module.classes else ()
    end = CaretPosition(pos.file, text.count("\n") + 1, len(text) - text.rfind("\n") - 1)
    return TaskAnalysis(context, lexed[0], module.diagnostics, func, frozenset(written), end)


# --- the evaluate flow -----------------------------------------------------------

def generate_then_score_report(config) -> dict:
    """`run_evaluate`'s report, from both models generating for every task
    (`run_model_over_tasks`) and then every task scored from a context
    `TaskContext.at` builds on the blanked file; nothing is written."""
    tool_model = load_model(config.tool_model_path)
    vanilla_model = load_model(config.vanilla_model_path)
    tasks = load_tasks(config.tasks, config) if config.tasks is not None else derive_tasks(config)
    runs = {}
    for variant, model, tool_enabled in (
        ("tool", tool_model, True),
        ("vanilla", vanilla_model, False),
    ):
        gen_cfg = GenerationConfig(
            max_tokens=config.max_tokens, cache_enabled=config.cache, tool_enabled=tool_enabled
        )
        runs[variant] = run_model_over_tasks(model, tasks, gen_cfg)
    vocab = tool_model.vocab
    judged = {variant: [] for variant in runs}
    for task_pairs in zip(*(pairs for pairs, _traces in runs.values()), strict=True):
        first = task_pairs[0]
        rows = ground_truth(task_pairs, vocab, TaskContext.at(first.repo, first.pos))
        for variant, row in zip(runs, rows, strict=True):
            judged[variant].append(row)
    report = {"n_tasks": len(tasks), "models": {}}
    for variant, (pairs, traces) in runs.items():
        entry = evaluate_pairs(pairs, vocab, judged[variant]).to_dict()
        entry["traces"] = trace_summary(traces)
        report["models"][variant] = entry
    return report


# --- recursive tree walks ------------------------------------------------------

def recursive_walk_expressions(stmts):
    """(expr, is_store_target) of every expression, statements and
    expressions both in pre-order, by recursion."""

    def statements(ss):
        for s in ss:
            yield s
            if isinstance(s, nodes.If):
                yield from statements(s.body)
                yield from statements(s.orelse)
            elif isinstance(s, nodes.While):
                yield from statements(s.body)

    def visit(e, store):
        yield e, store
        children = {
            nodes.Attribute: lambda: [e.value],
            nodes.Call: lambda: [e.func, *e.args],
            nodes.BinOp: lambda: [e.left, e.right],
        }.get(type(e), list)()
        for c in children:
            yield from visit(c, False)

    for s in statements(stmts):
        if isinstance(s, nodes.Assign):
            yield from visit(s.target, True)
            yield from visit(s.value, False)
        elif isinstance(s, (nodes.If, nodes.While)):
            yield from visit(s.test, False)
        elif s.value is not None:
            yield from visit(s.value, False)


def _dotted(e):
    """(dotted text, identifier positions) of a Name/Attribute chain; text is
    None when the chain does not start at a name."""
    if isinstance(e, nodes.Name):
        return e.id, [(e.line, e.column)]
    if isinstance(e, nodes.Attribute):
        text, positions = _dotted(e.value)
        return (None if text is None else text + "." + e.attr), positions + [(e.line, e.column)]
    return None, []


def access_expressions(stmts):
    """(text, identifier positions) of every attribute chain starting at a name,
    every level of it, and of every bare-name call target."""
    out = set()
    for e, _store in recursive_walk_expressions(stmts):
        if isinstance(e, nodes.Attribute):
            text, positions = _dotted(e)
            if text is not None:
                out.add((text, tuple(positions)))
        elif isinstance(e, nodes.Call) and isinstance(e.func, nodes.Name):
            out.add((e.func.id, ((e.func.line, e.func.column),)))
    return out


# --- whole-file scoring: splice the text in, analyse the whole file -------------

def whole_file_lint_in_span(pair):
    """`lint_check` records of the blanked file with the prediction spliced in,
    from the def line of its function to the end of the prediction."""
    snapshot, caret = insert(pair.repo, pair.pos, pair.pred)
    func = latest_enclosing_function(snapshot, pair.pos.file, pair.pos.line)
    start = func.line if func is not None else pair.pos.line
    return [e for e in lint_check(snapshot, pair.pos.file) if start <= e.line <= caret.line]


def whole_file_pair_is_valid(pair) -> bool:
    return not whole_file_lint_in_span(pair)


def whole_file_expressions(pair) -> set:
    """The access expressions of the prediction's function in the blanked
    file with the prediction spliced in."""
    snapshot, _caret = insert(pair.repo, pair.pos, pair.pred)
    func = latest_enclosing_function(snapshot, pair.pos.file, pair.pos.line)
    return {text for text, _positions in access_expressions(func.body)}


def whole_file_dependencies(gt, repo, pos) -> set:
    """For each identifier trigger insertion marks in the spliced file, the
    shortest access expression holding it. Expressions holding one position
    are nested chains, or a call target's name alone, so no two are equally
    short."""
    snapshot, _caret = insert(repo, pos, gt)
    func = latest_enclosing_function(snapshot, pos.file, pos.line)
    body = insert_triggers(snapshot, pos.file, func)
    marked = {(b.line, b.column) for a, b in zip(body, body[1:]) if a.kind == tk.MARKER}
    candidates = access_expressions(func.body)
    deps = set()
    for p in marked:
        holding = [(len(ps), text) for text, ps in candidates if p in ps]
        if holding:
            deps.add(min(holding)[1])
    return deps


def naive_edit_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 100.0
    return 100.0 * (1 - naive_levenshtein(a, b) / max(len(a), len(b)))


def naive_bleu(token_pairs) -> float:
    """Slow recount of corpus BLEU straight from the definition."""
    pred_len = sum(len(p) for p, _ in token_pairs)
    gt_len = sum(len(g) for _, g in token_pairs)
    if pred_len == 0:
        return 0.0
    log_sum, orders = 0.0, 0
    for n in range(1, 5):
        total = 0
        matches = 0
        for p, g in token_pairs:
            p_grams = [tuple(p[i : i + n]) for i in range(len(p) - n + 1)]
            g_grams = [tuple(g[i : i + n]) for i in range(len(g) - n + 1)]
            total += len(p_grams)
            for gram in set(p_grams):
                matches += min(p_grams.count(gram), g_grams.count(gram))
        if total == 0:
            continue
        p_n = matches / total if matches else 1.0 / (2.0 * total)
        log_sum += math.log(p_n)
        orders += 1
    if orders == 0:
        return 0.0
    bp = 1.0 if pred_len > gt_len else math.exp(1.0 - gt_len / pred_len)
    return bp * math.exp(log_sum / orders)


def counter_corpus_bleu(token_pairs) -> float:
    """Corpus BLEU counting every pair's n-grams afresh for each order, as
    `metrics.corpus_bleu` did before it summed per-pair counts; the same
    float operations on the same integers."""
    pred_len = sum(len(p) for p, _ in token_pairs)
    gt_len = sum(len(g) for _, g in token_pairs)
    if pred_len == 0:
        return 0.0
    logs = []
    for n in range(1, 5):
        total = sum(max(len(p) - n + 1, 0) for p, _ in token_pairs)
        if total == 0:
            continue
        matches = 0
        for p, g in token_pairs:
            cp = Counter(tuple(p[i: i + n]) for i in range(len(p) - n + 1))
            cg = Counter(tuple(g[i: i + n]) for i in range(len(g) - n + 1))
            matches += sum(min(c, cg[gram]) for gram, c in cp.items())
        p_n = matches / total if matches > 0 else 1.0 / (2.0 * total)
        logs.append(math.log(p_n))
    if not logs:
        return 0.0
    bp = 1.0 if pred_len > gt_len else math.exp(1.0 - gt_len / pred_len)
    return bp * math.exp(sum(logs) / len(logs))


def naive_dep_cov(dep_exp_sets):
    covered = sum(len(e & d) for e, d in dep_exp_sets)
    total = sum(len(d) for _, d in dep_exp_sets)
    return covered / total if total else None


def mask_distribution(dist: np.ndarray, allowed) -> np.ndarray:
    """Zero every entry outside `allowed`; no renormalization (argmax only)."""
    idx = sorted(allowed)
    if not idx:
        raise ValueError("allowed index set must not be empty")
    out = np.zeros_like(dist)
    out[idx] = dist[idx]
    return out


def argmax(vocab, dist: np.ndarray) -> int:
    """Index of the maximum entry of a dense distribution; ties break low."""
    if len(dist) != vocab.size:
        raise ValueError("distribution size does not match vocabulary")
    best = int(np.argmax(dist))
    if dist[best] <= 0.0:
        raise ValueError("cannot take the argmax of an all-zero distribution")
    return best


def dense_next_token(model, desc, prefix, excluded=(BOS_ID,)) -> int:
    """Greedy outer-loop choice from the full predicted distribution."""
    dist = np.asarray(model.predict(desc, prefix))
    dist[list(excluded)] = 0.0
    return argmax(model.vocab, dist)


def dense_path_walk(model, desc, prefix, paths):
    """Constrained greedy walk over plain token paths, by dense argmax.

    Structure-free reimplementation of the trie walk: candidate paths are
    plain tuples, the walk stops as soon as the chosen prefix equals a
    complete path (first-terminal rule).
    """
    paths = sorted({tuple(p) for p in paths})
    path_set = set(paths)
    work = list(prefix)
    chosen = ()
    while chosen not in path_set:
        depth = len(chosen)
        allowed = {p[depth] for p in paths if len(p) > depth and p[:depth] == chosen}
        tok = argmax(model.vocab, mask_distribution(np.asarray(model.predict(desc, work)), allowed))
        chosen += (tok,)
        work.append(tok)
    return list(chosen)


def greedy_path_oracle(model, desc, prefix, suggestions, vocab):
    """Dense constrained walk over the suggestions' subword token paths."""
    paths = [[vocab.id(s) for s in split_identifier(sug)] for sug in suggestions]
    return dense_path_walk(model, desc, prefix, paths)


def random_selection_case(rng: random.Random):
    """A random (model, description, prefix, suggestions, vocab) tuple.

    Suggestion subwords are drawn from the vocabulary-building corpus, the
    way the pipeline guarantees coverage for real completion lists.
    """
    words = ["al", "be", "cu", "do", "el", "fo", "gi", "hu", "iv", "jo"]
    n_sug = rng.randint(1, 12)
    suggestions = set()
    while len(suggestions) < n_sug:
        parts = [rng.choice(words) for _ in range(rng.randint(1, 3))]
        name = ("_" if rng.random() < 0.5 else "") + "_".join(parts)
        suggestions.add(name)
    suggestions = sorted(suggestions)
    vocab = build_vocab(map(token_strings, [" ".join(words)] + suggestions))
    ids = list(range(4, vocab.size))
    pairs = []
    for _ in range(rng.randint(1, 6)):
        body = [rng.choice(ids) for _ in range(rng.randint(1, 8))]
        desc = [rng.choice(ids) for _ in range(rng.randint(0, 3))]
        pairs.append((desc, [BOS_ID] + body + [EOS_ID]))
    model = train(pairs, order=rng.choice([2, 3]), alpha=0.1, vocab=vocab)
    desc = [rng.choice(ids) for _ in range(rng.randint(0, 3))]
    prefix = [BOS_ID] + [rng.choice(ids) for _ in range(rng.randint(0, 5))] + [COMP_ID]
    return model, desc, prefix, suggestions, vocab
