"""Evaluation metrics over (generated, ground-truth) pairs.

Both repository-aware metrics read one function of a benchmark task: the
one whose body the task blanked. Scoring therefore builds one
`TaskContext` per task at the blanked caret and asks it, through
`TaskContext.analyse`, about that function with a ground truth or a
prediction written in; the context is dropped before the next task.

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
task context, and that parse gives both its lint verdict and its access
expressions.
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


def task_context(repo: Repository, pos: CaretPosition) -> TaskContext:
    """The task context at a blanked task's caret; ValueError at any other."""
    task = TaskContext.at(repo, pos)
    if task is None:
        raise ValueError(f"{pos.file}:{pos.line}:{pos.column} is not a blanked task's caret")
    return task


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
    `task_context(pair.repo, pair.pos).analyse(pair.pred)`."""
    return not analysis.lint()


def edit_similarity(a: str, b: str) -> float:
    """100 * (1 - levenshtein/max-length); two empty strings are 100% similar."""
    if not a and not b:
        return 100.0
    return 100.0 * (1.0 - levenshtein(a, b) / max(len(a), len(b)))


def _ngram_counts(ids: Sequence[int], n: int) -> Counter:
    return Counter(tuple(ids[i: i + n]) for i in range(len(ids) - n + 1))


def corpus_bleu(token_pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> float:
    """Corpus BLEU, n<=4, brevity penalty, 1/(2*total) smoothing on zero matches.

    Orders with no candidate n-grams at all are excluded from the geometric
    mean (short-corpus guard).
    """
    pred_len = sum(len(p) for p, _ in token_pairs)
    gt_len = sum(len(g) for _, g in token_pairs)
    if pred_len == 0:
        return 0.0
    logs: list[float] = []
    for n in range(1, 5):
        total = sum(max(len(p) - n + 1, 0) for p, _ in token_pairs)
        if total == 0:
            continue
        matches = 0
        for p, g in token_pairs:
            cp = _ngram_counts(p, n)
            cg = _ngram_counts(g, n)
            matches += sum(min(c, cg[gram]) for gram, c in cp.items())
        p_n = matches / total if matches > 0 else 1.0 / (2.0 * total)
        logs.append(log(p_n))
    if not logs:
        return 0.0
    bp = 1.0 if pred_len > gt_len else exp(1.0 - gt_len / pred_len)
    return bp * exp(sum(logs) / len(logs))


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


@dataclass(frozen=True)
class GroundTruth:
    """The task side of a pair, the same for every model scored on the task."""

    deps: set[str]
    canonical: str
    ids: list[int]


class Verdict(NamedTuple):
    """What scoring reads of one prediction's analysis in its task."""

    valid: bool             # `pair_is_valid`
    expressions: set[str]   # `extract_expressions` of its function body


def ground_truth(pairs: Sequence[EvalPair], vocab: Vocab) -> tuple[GroundTruth, list[Verdict]]:
    """The task side of one task's pairs (one per model, say), and each
    pair's verdict in pair order, all from one task context."""
    gt, repo, pos = pairs[0].gt, pairs[0].repo, pairs[0].pos
    if any((p.gt, p.pos) != (gt, pos) or p.repo is not repo for p in pairs):
        raise ValueError(f"pairs of more than one task at {pos.file}:{pos.line}")
    task = task_context(repo, pos)
    lexed = lex(gt)
    truth = GroundTruth(
        deps=identify_dependencies(gt, task),
        canonical=render_tokens(lexed[0]),
        ids=tokenize(gt, vocab, lexed=lexed),
    )
    verdicts = []
    for pair in pairs:
        analysis = task.analyse(pair.pred)
        verdicts.append(
            Verdict(pair_is_valid(analysis), extract_expressions(analysis.function.body))
        )
    return truth, verdicts


def _score_pair(
    pair: EvalPair, truth: GroundTruth, verdict: Verdict, vocab: Vocab
) -> tuple[dict, list[int]]:
    """The report row of one prediction, and its token ids for corpus BLEU."""
    lexed = lex(pair.pred)
    pred_ids = tokenize(pair.pred, vocab, lexed=lexed)
    row = {
        "label": pair.label,
        "file": pair.pos.file,
        "line": pair.pos.line,
        "dep_total": len(truth.deps),
        "dep_covered": len(verdict.expressions & truth.deps),
        "valid": verdict.valid,
        "exact_match": render_tokens(lexed[0]) == truth.canonical,
        "edit_sim": edit_similarity(pair.pred, pair.gt),
        "bleu4": corpus_bleu([(pred_ids, truth.ids)]),
    }
    return row, pred_ids


def _aggregate(rows: list[dict], token_pairs: list[tuple[list[int], list[int]]]) -> EvalReport:
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
        bleu4=corpus_bleu(token_pairs),
        per_pair=rows,
    )


def evaluate_pairs(
    pairs: Sequence[EvalPair],
    vocab: Vocab,
    judged: Optional[Sequence[tuple[GroundTruth, Verdict]]] = None,
) -> EvalReport:
    """All six headline metrics plus the per-pair breakdown.

    `judged[i]` is the task side of pairs[i] and its verdict, as `ground_truth`
    gives them for pairs[i] and the pairs of other models on the same task;
    pass them in to score several models on the same tasks without
    recomputing the task side.
    """
    if judged is None:
        judged = []
        for pair in pairs:
            truth, (verdict,) = ground_truth([pair], vocab)
            judged.append((truth, verdict))
    rows: list[dict] = []
    token_pairs: list[tuple[list[int], list[int]]] = []
    for pair, (truth, verdict) in zip(pairs, judged, strict=True):
        row, pred_ids = _score_pair(pair, truth, verdict, vocab)
        rows.append(row)
        token_pairs.append((pred_ids, truth.ids))
    return _aggregate(rows, token_pairs)
