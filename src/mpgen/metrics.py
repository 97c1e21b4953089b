"""Evaluation metrics over (generated, ground-truth) pairs.

Dependency Coverage follows the micro-averaged formula: the dependency set
of a ground truth is found by running trigger insertion on it in its
repository context and keeping, for each marked identifier, the minimal
enclosing access expression (attribute chains and call targets); the
expression set of a prediction is every attribute access and call target in
its AST. Static validity splices each prediction into its repository
snapshot and passes iff the inserted span produces no syntax-error,
undefined-variable, or no-member lint records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import exp, log
from statistics import mean
from typing import Optional, Sequence

from ._kernels import levenshtein
from .analysis.insert import insert_text
from .analysis.lint import lint_check
from .analysis.scope import scope_index_for
from .lm.tokenizer import tokenize
from .lm.vocab import Vocab
from .minilang import nodes
from .minilang.lexer import lex
from .minilang.parser import parse_body
from .minilang.render import render_tokens
from .repo import CaretPosition, Repository
from .trigger import insert_triggers


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


def extract_expressions(pred: str) -> set[str]:
    """All attribute-access and call-target expressions in prediction text.

    Unparseable predictions contribute whatever the recovering parser keeps.
    """
    stmts, _diags = parse_body(pred)
    return {text for text, _ in _access_candidates(stmts)}


def identify_dependencies(gt: str, repo: Repository, pos: CaretPosition) -> set[str]:
    """DEP(gt): minimal access expressions covering trigger-marked identifiers."""
    snapshot, _caret = insert_text(repo, pos, gt)
    _, func = scope_index_for(snapshot).enclosing(pos.file, pos.line)
    if func is None:
        raise ValueError(
            f"ground truth at {pos.file}:{pos.line} does not parse into a function"
        )
    aug = insert_triggers(snapshot, pos.file, func)
    marked = aug.marked_positions()
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


def pair_is_valid(pair: EvalPair) -> bool:
    """True iff the inserted prediction's span lints clean."""
    snapshot, caret = insert_text(pair.repo, pair.pos, pair.pred)
    _, func = scope_index_for(snapshot).enclosing(pair.pos.file, pair.pos.line)
    span_start = func.line if func is not None else pair.pos.line
    span_end = caret.line
    errors = lint_check(snapshot, pair.pos.file)
    return not any(span_start <= e.line <= span_end for e in errors)


def canonical_text(text: str) -> str:
    toks, _ = lex(text)
    return render_tokens(toks)


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


def ground_truth(pair: EvalPair, vocab: Vocab) -> GroundTruth:
    return GroundTruth(
        deps=identify_dependencies(pair.gt, pair.repo, pair.pos),
        canonical=canonical_text(pair.gt),
        ids=tokenize(pair.gt, vocab),
    )


def _score_pair(pair: EvalPair, truth: GroundTruth, vocab: Vocab) -> tuple[dict, list[int]]:
    """The report row of one prediction, and its token ids for corpus BLEU."""
    pred_ids = tokenize(pair.pred, vocab)
    row = {
        "label": pair.label,
        "file": pair.pos.file,
        "line": pair.pos.line,
        "dep_total": len(truth.deps),
        "dep_covered": len(extract_expressions(pair.pred) & truth.deps),
        "valid": pair_is_valid(pair),
        "exact_match": canonical_text(pair.pred) == truth.canonical,
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
    pairs: Sequence[EvalPair], vocab: Vocab, truths: Optional[Sequence[GroundTruth]] = None
) -> EvalReport:
    """All six headline metrics plus the per-pair breakdown.

    `truths[i]` is `ground_truth(pairs[i], vocab)`; pass them in to score
    several models on the same tasks without recomputing the task side.
    """
    if truths is None:
        truths = [ground_truth(pair, vocab) for pair in pairs]
    rows: list[dict] = []
    token_pairs: list[tuple[list[int], list[int]]] = []
    for pair, truth in zip(pairs, truths, strict=True):
        row, pred_ids = _score_pair(pair, truth, vocab)
        rows.append(row)
        token_pairs.append((pred_ids, truth.ids))
    return _aggregate(rows, token_pairs)
