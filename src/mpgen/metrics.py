"""Evaluation metrics over (generated, ground-truth) pairs.

Both repository-aware metrics read one function of a benchmark task: the
one whose body the task blanked. Scoring therefore reads one
`TaskContext` per task at the blanked caret (`pipeline.run_evaluate` makes
a new one from each loaded task once both models have generated, and
pairs scored without their rows get one `TaskContext.at` builds), and asks
it, through `TaskContext.analyse`, about that function with a ground truth
or a prediction written in. Scoring a task (`ground_truth`) writes each of
its pairs' report rows.

Dependency Coverage follows the micro-averaged formula: the dependency set
of a ground truth is found by running the trigger-insertion rule on it in
its repository context and keeping, for each marked identifier, the minimal
enclosing access expression (attribute chains and call targets); the
expression set of a prediction is every attribute access and call target in
its AST. Static validity passes a prediction iff its function, from the def
line to the end of the prediction, has no syntax-error, undefined-variable
or no-member lint record.

Both equal what splicing the text into the blanked file and analysing the
whole file gives (`tests/oracles.py` keeps that computation). The spliced
text sits at the caret, indented past the module level, so it changes no
name the rest of the file defines; a whole-file lint records nothing from
the rest of the file on the function's lines; and the analysis adds the
class attributes the function assigns, the one thing the splice changes in
the scope index.

Each prediction and ground truth is lexed once on its own, and that lex
feeds its token ids and its canonical text. Each is parsed once, in its
task context, and that parse gives both its lint records and its access
expressions. Corpus BLEU is a ratio of summed clipped n-gram counts, so
each pair's counts are taken once, while its task is scored (each ground
truth's n-grams counted once for all models), and the pair's row and the
corpus score are both read off them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import exp, log
from statistics import mean
from typing import NamedTuple, Optional, Sequence

from ._kernels import levenshtein
from .analysis.complete import TaskAnalysis, TaskContext
from .lm.tokenizer import tokenize
from .lm.vocab import Vocab
from .minilang import nodes
from .minilang.lexer import lex
from .minilang.render import render_tokens
from .repo import CaretPosition, Repository
from .trigger import is_trigger


@dataclass
class EvalPair:
    gt: str
    pred: str
    repo: Repository          # snapshot with the target body blanked
    pos: CaretPosition
    label: str = ""


def _access_candidates(stmts: list[nodes.Stmt]) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """(canonical text, identifier positions) for every access expression.

    Access expressions are attribute chains (all levels of nesting) and call
    targets, including bare-name call targets.
    """
    out: dict[tuple[str, tuple[tuple[int, int], ...]], None] = {}
    for expr, _store in nodes.walk_expressions(stmts):
        if isinstance(expr, nodes.Attribute):
            text = nodes.expr_text(expr)
            if text is not None:
                out[(text, tuple(nodes.chain_positions(expr)))] = None
        elif isinstance(expr, nodes.Call) and isinstance(expr.func, nodes.Name):
            out[(expr.func.id, ((expr.func.line, expr.func.column),))] = None
    return list(out.keys())


def extract_expressions(stmts: list[nodes.Stmt]) -> set[str]:
    """All attribute-access and call-target expressions in the statements,
    a prediction's function body as its task analysis parses it; an
    unparseable prediction contributes whatever the recovering parser
    keeps."""
    return {text for text, _ in _access_candidates(stmts)}


def identify_dependencies(gt: str, task: TaskContext) -> set[str]:
    """DEP(gt): minimal access expressions covering trigger-marked
    identifiers, with gt written in at the task's caret."""
    analysis = task.analyse(gt)
    func = analysis.function
    marked = [(t.line, t.column) for t in func.body_tokens if is_trigger(t, analysis.complete_at)]
    candidates = _access_candidates(func.body)
    deps: set[str] = set()
    for p in marked:
        best: Optional[tuple[str, int]] = None
        for text, positions in candidates:
            if p in positions:
                if best is None or len(positions) < best[1]:
                    best = (text, len(positions))
        if best is not None:
            deps.add(best[0])
    return deps


def pair_is_valid(analysis: TaskAnalysis) -> bool:
    """True iff a prediction's function, up to the end of the prediction,
    lints clean; analysis is the prediction analysed in its task context,
    `TaskContext.at(pair.repo, pair.pos).analyse(pair.pred)`."""
    return not analysis.lint()


def edit_similarity(a: str, b: str) -> float:
    """100 * (1 - levenshtein/max-length); two empty strings are 100% similar."""
    if not a and not b:
        return 100.0
    return 100.0 * (1.0 - levenshtein(a, b) / max(len(a), len(b)))


def _ngram_counts(ids: Sequence[int], n: int) -> Counter:
    return Counter(zip(*(ids[i:] for i in range(n))))


def reference_ngrams(ids: Sequence[int]) -> list[Counter]:
    """A reference's n-gram counts, n = 1..4, for `bleu_counts`."""
    return [_ngram_counts(ids, n) for n in range(1, 5)]


class BleuCounts(NamedTuple):
    """One candidate's BLEU statistics against its reference. Corpus BLEU
    reads only their sums over the pairs."""

    ref_len: int
    orders: tuple[tuple[int, int], ...]  # (clipped matches, candidate n-grams), n = 1..4


def bleu_counts(pred: Sequence[int], ref: Sequence[int], ref_ngrams: list[Counter]) -> BleuCounts:
    """The candidate pred's counts against ref, whose `reference_ngrams` are
    ref_ngrams."""
    orders = []
    for n, ref_counts in enumerate(ref_ngrams, start=1):
        total = max(len(pred) - n + 1, 0)
        matches = 0
        if total:
            pred_counts = _ngram_counts(pred, n)
            matches = sum(min(c, ref_counts[gram]) for gram, c in pred_counts.items())
        orders.append((matches, total))
    return BleuCounts(len(ref), tuple(orders))


def bleu_from_counts(counts: Sequence[BleuCounts]) -> float:
    """Corpus BLEU, n<=4, brevity penalty, 1/(2*total) smoothing on zero
    matches, from each pair's counts.

    Orders with no candidate n-grams at all are excluded from the geometric
    mean (short-corpus guard). The sums are integers, so any grouping of
    the pairs gives the same score.
    """
    pred_len = sum(c.orders[0][1] for c in counts)  # one unigram per token
    if pred_len == 0:
        return 0.0
    ref_len = sum(c.ref_len for c in counts)
    logs: list[float] = []
    for n in range(4):
        total = sum(c.orders[n][1] for c in counts)
        if total == 0:
            continue
        matches = sum(c.orders[n][0] for c in counts)
        p_n = matches / total if matches > 0 else 1.0 / (2.0 * total)
        logs.append(log(p_n))
    if not logs:
        return 0.0
    bp = 1.0 if pred_len > ref_len else exp(1.0 - ref_len / pred_len)
    return bp * exp(sum(logs) / len(logs))


def corpus_bleu(token_pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> float:
    """Corpus BLEU of (candidate ids, reference ids) pairs; see `bleu_from_counts`."""
    return bleu_from_counts([bleu_counts(p, g, reference_ngrams(g)) for p, g in token_pairs])


@dataclass
class EvalReport:
    n: int
    dep_cov: Optional[float]
    val_rate: float
    val_rate_dep: Optional[float]
    exact_match: float
    edit_sim: float
    bleu4: float
    per_pair: list[dict]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dep_cov": self.dep_cov,
            "val_rate": self.val_rate,
            "val_rate_dep": self.val_rate_dep,
            "exact_match": self.exact_match,
            "edit_sim": self.edit_sim,
            "bleu4": self.bleu4,
            "pairs": self.per_pair,
        }


def ground_truth(
    pairs: Sequence[EvalPair], vocab: Vocab, task: TaskContext
) -> list[tuple[dict, BleuCounts]]:
    """Each pair's report row and BLEU counts, in pair order, for one task's
    pairs (one per model, say), all read from task, the context at their
    caret. The ground truth's dependency set and n-gram counts are found
    once for them all, and live only as long as this call.
    """
    gt, repo, pos = pairs[0].gt, pairs[0].repo, pairs[0].pos
    if any((p.gt, p.pos) != (gt, pos) or p.repo is not repo for p in pairs):
        raise ValueError(f"pairs of more than one task at {pos.file}:{pos.line}")
    if task.pos != pos:
        raise ValueError(f"a task context at {task.pos} cannot score the task at {pos}")
    lexed = lex(gt)
    canonical = render_tokens(lexed[0])
    ids = tokenize(gt, vocab, lexed=lexed)
    ref_ngrams = reference_ngrams(ids)
    deps = identify_dependencies(gt, task)
    judged = []
    for pair in pairs:
        analysis = task.analyse(pair.pred)
        pred_lexed = lex(pair.pred)
        bleu = bleu_counts(tokenize(pair.pred, vocab, lexed=pred_lexed), ids, ref_ngrams)
        judged.append(({
            "label": pair.label,
            "file": pos.file,
            "line": pos.line,
            "dep_total": len(deps),
            "dep_covered": len(extract_expressions(analysis.function.body) & deps),
            "valid": pair_is_valid(analysis),
            "exact_match": render_tokens(pred_lexed[0]) == canonical,
            "edit_sim": edit_similarity(pair.pred, gt),
            "bleu4": bleu_from_counts([bleu]),
        }, bleu))
    return judged


def evaluate_pairs(
    pairs: Sequence[EvalPair],
    vocab: Vocab,
    judged: Optional[Sequence[tuple[dict, BleuCounts]]] = None,
) -> EvalReport:
    """All six headline metrics plus the per-pair breakdown.

    `judged[i]` is the report row of pairs[i] and its BLEU counts, as
    `ground_truth` gives them for pairs[i] and the pairs of other models on
    the same task; pass them in to score several models on the same tasks
    without recomputing the task side. Without them each pair is judged in
    a context `TaskContext.at` builds at its caret.
    """
    if judged is None:
        judged = [
            row
            for pair in pairs
            for row in ground_truth([pair], vocab, TaskContext.at(pair.repo, pair.pos))
        ]
    elif len(judged) != len(pairs):
        raise ValueError(f"{len(judged)} judged rows for {len(pairs)} pairs")
    rows = [row for row, _bleu in judged]
    n = len(rows)
    dep_total = sum(r["dep_total"] for r in rows)
    dep_rows = [r for r in rows if r["dep_total"]]
    return EvalReport(
        n=n,
        dep_cov=sum(r["dep_covered"] for r in rows) / dep_total if dep_total else None,
        val_rate=sum(r["valid"] for r in rows) / n if n else 0.0,
        val_rate_dep=sum(r["valid"] for r in dep_rows) / len(dep_rows) if dep_rows else None,
        exact_match=sum(r["exact_match"] for r in rows) / n if n else 0.0,
        edit_sim=mean(r["edit_sim"] for r in rows) if rows else 0.0,
        bleu4=bleu_from_counts([bleu for _row, bleu in judged]),
        per_pair=rows,
    )
