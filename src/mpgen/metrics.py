"""Evaluation metrics over (generated, ground-truth) pairs.

Both repository-aware metrics read one function of a benchmark task: the
one whose body the task blanked. Scoring therefore reads one
`TaskContext` per task at the blanked caret (`pipeline.run_evaluate` makes
a new one from each loaded task once both models have generated, and
pairs scored without their rows get one `TaskContext.at` builds), and asks
it, through `TaskContext.analyse`, about that function with a ground truth
or a prediction written in. Scoring the tasks (`ground_truth`) writes each
pair's report row.

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

A run is scored in one `ground_truth` call over its tasks. Each distinct
text, whether ground truth or prediction, is lexed once on its own for the
whole call, and that lex gives its token ids, its canonical text and its
n-gram counts: all pure functions of the text and the vocabulary. Within a
task, each distinct text is analysed once in the task context, and that
analysis gives both its lint records and its access expressions; the ground
truth's gives the dependency set too, and the row of any prediction equal
to it. Analysing is a pure function of the context and the text (resuming
from a checkpoint is exact, see `TaskContext`), so reading each text once
changes no number. Corpus BLEU is a ratio of summed clipped n-gram
counts, so each pair's counts are taken once, while its task is scored, and
the pair's row and the corpus score are both read off them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import exp, log
from statistics import mean
from typing import Iterable, NamedTuple, Optional, Sequence

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


def identify_dependencies(analysis: TaskAnalysis) -> set[str]:
    """DEP(gt): minimal access expressions covering trigger-marked
    identifiers; analysis is the ground truth analysed in its task context,
    `TaskContext.at(pair.repo, pair.pos).analyse(pair.gt)`."""
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


def reference_ngrams(ids: Sequence[int]) -> list[Counter]:
    """A text's n-gram counts, n = 1..4, for `bleu_counts`."""
    return [Counter(zip(*(ids[i:] for i in range(n)))) for n in range(1, 5)]


class BleuCounts(NamedTuple):
    """One candidate's BLEU statistics against its reference. Corpus BLEU
    reads only their sums over the pairs."""

    ref_len: int
    orders: tuple[tuple[int, int], ...]  # (clipped matches, candidate n-grams), n = 1..4


def _clipped(pred_ngrams: list[Counter], ref_len: int, ref_ngrams: list[Counter]) -> BleuCounts:
    """A candidate's counts, from its and its reference's `reference_ngrams`;
    neither is changed."""
    return BleuCounts(ref_len, tuple(
        (sum(min(c, ref_counts[gram]) for gram, c in pred_counts.items()), sum(pred_counts.values()))
        for pred_counts, ref_counts in zip(pred_ngrams, ref_ngrams)
    ))


def bleu_counts(pred: Sequence[int], ref: Sequence[int], ref_ngrams: list[Counter]) -> BleuCounts:
    """The candidate pred's counts against ref, whose `reference_ngrams` are
    ref_ngrams."""
    return _clipped(reference_ngrams(pred), len(ref), ref_ngrams)


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


class _Text(NamedTuple):
    """What scoring reads of a text on its own, from one bare lex."""

    ids: list[int]
    canonical: str          # the text as its lex renders
    ngrams: list[Counter]   # reference_ngrams(ids)


def ground_truth(
    tasks: Iterable[tuple[TaskContext, Sequence[EvalPair]]], vocab: Vocab
) -> list[list[tuple[dict, BleuCounts]]]:
    """Each task's report rows and BLEU counts, in task and pair order, for
    a run's tasks: each item is the context at a task's caret and the task's
    pairs (one per model, say). Items are read one at a time, so a generator
    can make each task's context when its turn comes; the previous task's
    is dropped once the next item is read.

    Each distinct text, ground truth or prediction, is lexed once on its own
    for the whole call, for its token ids under vocab, its canonical text and
    its n-gram counts. Within a task each distinct text is analysed once, in
    its context: the ground truth's analysis gives the dependency set, and
    the row of any prediction equal to it, and pairs with equal predictions
    share one analysis. The analyses are not kept once their task is scored.

    ValueError when an item's pairs are of more than one task or its context
    is at another caret.
    """
    texts: dict[str, _Text] = {}

    def read(text: str) -> _Text:
        entry = texts.get(text)
        if entry is None:
            lexed = lex(text)
            ids = tokenize(text, vocab, lexed=lexed)
            entry = texts[text] = _Text(ids, render_tokens(lexed[0]), reference_ngrams(ids))
        return entry

    judged = []
    for task, pairs in tasks:
        gt, repo, pos = pairs[0].gt, pairs[0].repo, pairs[0].pos
        if any((p.gt, p.pos) != (gt, pos) or p.repo is not repo for p in pairs):
            raise ValueError(f"pairs of more than one task at {pos.file}:{pos.line}")
        if task.pos != pos:
            raise ValueError(f"a task context at {task.pos} cannot score the task at {pos}")
        ref = read(gt)
        gt_analysis = task.analyse(gt)
        deps = identify_dependencies(gt_analysis)
        scored: dict[str, tuple[dict, BleuCounts]] = {}  # by prediction
        rows = []
        for pair in pairs:
            if pair.pred not in scored:
                analysis = gt_analysis if pair.pred == gt else task.analyse(pair.pred)
                cand = read(pair.pred)
                bleu = _clipped(cand.ngrams, len(ref.ids), ref.ngrams)
                scored[pair.pred] = ({
                    "file": pos.file,
                    "line": pos.line,
                    "dep_total": len(deps),
                    "dep_covered": len(extract_expressions(analysis.function.body) & deps),
                    "valid": pair_is_valid(analysis),
                    "exact_match": cand.canonical == ref.canonical,
                    "edit_sim": edit_similarity(pair.pred, gt),
                    "bleu4": bleu_from_counts([bleu]),
                }, bleu)
            row, bleu = scored[pair.pred]
            rows.append(({"label": pair.label, **row}, bleu))
        judged.append(rows)
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
    without recomputing the task side. Without them one `ground_truth` call
    judges each pair on its own, in a context `TaskContext.at` builds at its
    caret.
    """
    if judged is None:
        judged = [
            row
            for rows in ground_truth(((TaskContext.at(p.repo, p.pos), [p]) for p in pairs), vocab)
            for row in rows
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
