"""Tool-integrated generation: greedy decoding with trie-constrained selection.

The outer loop appends the model's most likely next token, one at a time.
When the trigger token is emitted, the partial function (markers stripped)
is spliced into the repository, the completion tool is asked for
suggestions at the resulting caret, and a prefix-trie constrained greedy
walk picks one suggestion: at every trie node the most likely of the node's
children is taken, descending until the first terminal node. The walk stops
at the first terminal it reaches, so a suggestion whose token sequence
extends another suggestion is unreachable; tries report how many suggestions
are shadowed this way.

Every choice is made from the n-gram counts, not from a dense distribution:
additive smoothing, (count + alpha) / denominator with alpha > 0, is
strictly increasing in the count (in floating point too, while alpha and
the counts stay far below 2**52), so among the legal ids the most likely
one is the one with the highest count, ties going to the lowest id, and an
id never seen in the context counts zero. This picks exactly what the
argmax of the masked `NGramModel.predict` vector would.

With tool_enabled=False the loop is plain greedy decoding (the vanilla
baseline). A per-generation cache keyed on the receiver (and invalidated
whenever the partial function gains an assignment) recalls suggestion lists
for repeatedly accessed objects; cached and uncached runs produce identical
output because the key pins everything the list depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .analysis.complete import tool_complete
from .analysis.insert import insert
from .lm.ngram import NGramModel, description_bucket
from .lm.tokenizer import NL_TOKEN, _classify, detokenize, split_identifier, tokenize
from .lm.vocab import COMP_ID, CONTROL_IDS, EOS_ID, BOS_ID, Vocab
from .minilang import render as rnd
from .repo import CaretPosition, Repository


class InternalInvariantError(RuntimeError):
    """A can't-happen condition was reached; indicates a bug, not bad input."""


@dataclass(frozen=True)
class GenerationConfig:
    max_tokens: int = 256
    tie_break: str = "lowest-index"
    cache_enabled: bool = True
    tool_enabled: bool = True

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.tie_break != "lowest-index":
            raise ValueError("only lowest-index tie-breaking is supported")


@dataclass
class GenerationTrace:
    tokens: list[int] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)  # "model" | "tool-selection"
    steps: int = 0                  # outer-loop model predictions
    tool_invocations: int = 0
    cache_hits: int = 0
    dropped_triggers: int = 0
    shadowed_suggestions: int = 0
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "tool_invocations": self.tool_invocations,
            "cache_hits": self.cache_hits,
            "dropped_triggers": self.dropped_triggers,
            "shadowed_suggestions": self.shadowed_suggestions,
            "truncated": self.truncated,
            "tags": list(self.tags),
        }


class TrieNode:
    __slots__ = ("token_id", "children", "is_terminal")

    def __init__(self, token_id: Optional[int]):
        self.token_id = token_id
        self.children: dict[int, TrieNode] = {}
        self.is_terminal = False


class PrefixTrie:
    """Trie over suggestion token sequences; shared prefixes share nodes."""

    def __init__(self):
        self.root = TrieNode(None)
        self.n_suggestions = 0
        self.node_count = 1
        self._sequences: list[tuple[int, ...]] = []

    def insert(self, seq: Sequence[int]) -> None:
        if not seq:
            raise ValueError("cannot insert an empty token sequence")
        node = self.root
        for tok in seq:
            child = node.children.get(tok)
            if child is None:
                child = TrieNode(tok)
                node.children[tok] = child
                self.node_count += 1
            node = child
        node.is_terminal = True
        self.n_suggestions += 1
        self._sequences.append(tuple(seq))

    @property
    def shadowed_count(self) -> int:
        """Suggestions unreachable because a proper prefix is itself terminal."""
        shadowed = 0
        for seq in self._sequences:
            node = self.root
            for tok in seq[:-1]:
                node = node.children[tok]
                if node.is_terminal:
                    shadowed += 1
                    break
        return shadowed


def tokenize_suggestion(suggestion: str, vocab: Vocab) -> list[int]:
    """Subword token ids of one identifier-level suggestion."""
    return [vocab.id(s) for s in split_identifier(suggestion)]


def build_trie(suggestions: Sequence[str], vocab: Vocab) -> PrefixTrie:
    if not suggestions:
        raise ValueError("cannot build a trie from an empty suggestion list")
    trie = PrefixTrie()
    for s in suggestions:
        trie.insert(tokenize_suggestion(s, vocab))
    return trie


def greedy_choice(counts: dict[int, int], candidates: Iterable[int]) -> int:
    """The candidate the smoothed distribution ranks highest.

    Highest count first, then lowest id; ids missing from `counts` count 0.
    """
    return max(candidates, key=lambda tok: (counts.get(tok, 0), -tok))


def select_suggestion(
    model: NGramModel,
    description: Sequence[int],
    prefix: Sequence[int],
    trie: PrefixTrie,
    bucket: Optional[int] = None,
) -> list[int]:
    """Constrained greedy walk from the trie root to its first terminal.

    Returns the appended token ids; the result always spells a complete
    suggestion from the list the trie was built from. `bucket`, when given,
    must be the description's `description_bucket`.
    """
    if bucket is None:
        bucket = description_bucket(description, model.vocab, model.buckets)
    node = trie.root
    work = list(prefix)
    appended: list[int] = []
    while not node.is_terminal:
        if not node.children:
            raise InternalInvariantError("non-terminal trie node with no children")
        tok = greedy_choice(model.next_counts(bucket, work), node.children)
        appended.append(tok)
        work.append(tok)
        node = node.children[tok]
    return appended


def _is_wordlike(token_str: str) -> bool:
    return _classify(token_str)[0] == rnd.WORD


def _trigger_cache_key(prefix: Sequence[int], vocab: Vocab) -> tuple:
    """Cache key for the completion list at a trigger.

    The key pins the resolved-receiver identity (by name) for attribute
    contexts and folds in the number of assignments on completed lines,
    which invalidates the entry whenever the partial function could have
    gained a member, a local, or a rebound receiver. Assignments only count
    once their line is closed: the recovering parser ignores the statement
    still being generated, so a mid-line `=` has no effect on scope yet.
    """
    strs = [vocab.token(t) for t in prefix[:-1]]  # exclude the trigger itself
    last_nl = max((i for i, s in enumerate(strs) if s == NL_TOKEN), default=-1)
    n_assign = sum(1 for s in strs[: last_nl + 1] if s == "=")
    if strs and strs[-1] == ".":
        j = len(strs) - 2
        run: list[str] = []
        while j >= 0 and _is_wordlike(strs[j]):
            run.append(strs[j])
            j -= 1
        receiver = "".join(reversed(run))
        if not run or (j >= 0 and strs[j] == "."):
            return ("attr-chain", receiver, n_assign)
        return ("attr", receiver, n_assign)
    return ("scope", n_assign)


def _choose_next(counts: dict[int, int], excluded: tuple[int, ...]) -> int:
    """Greedy outer-loop token: every id but `excluded` is legal.

    Unseen ids all tie at count 0, so the only one that can win is the
    lowest legal id, <EOS>; the observed ids are the other candidates.
    """
    return greedy_choice(counts, [EOS_ID] + [t for t in counts if t not in excluded])


def generate(
    model: NGramModel,
    repo: Repository,
    description: str,
    pos: CaretPosition,
    cfg: GenerationConfig = GenerationConfig(),
) -> tuple[str, GenerationTrace]:
    """Generate a function body at pos, returning (canonical text, trace)."""
    vocab = model.vocab
    desc_ids = tokenize(description, vocab)
    bucket = description_bucket(desc_ids, vocab, model.buckets)
    seq: list[int] = [BOS_ID]
    trace = GenerationTrace()
    cache: dict[tuple, list[str]] = {}

    while True:
        counts = model.next_counts(bucket, seq)
        # The sequence-start token is never a legal continuation. <EOS> is
        # the lowest legal id, so fully unseen contexts tie-break to it.
        tok = _choose_next(counts, excluded=(BOS_ID,))
        trace.steps += 1
        seq.append(tok)
        trace.tags.append("model")
        if tok == EOS_ID:
            break
        if trace.steps >= cfg.max_tokens:
            trace.truncated = True
            break
        if tok != COMP_ID or not cfg.tool_enabled:
            # A trigger emitted with the tool disabled stays in the context
            # (the vanilla model never learns it) and is stripped from output.
            continue

        key = _trigger_cache_key(seq, vocab)
        suggestions: Optional[list[str]] = None
        if cfg.cache_enabled and key in cache:
            suggestions = cache[key]
            trace.cache_hits += 1
        else:
            snapshot, caret = insert(repo, pos, seq, vocab)
            trace.tool_invocations += 1
            try:
                suggestions = tool_complete(snapshot, caret)
            except Exception:
                suggestions = []
            if cfg.cache_enabled:
                cache[key] = suggestions

        if not suggestions:
            # Failed trigger: drop the marker and take the best non-trigger
            # token from the same distribution instead.
            seq.pop()
            trace.tags.pop()
            trace.dropped_triggers += 1
            tok2 = _choose_next(counts, excluded=(BOS_ID, COMP_ID))
            seq.append(tok2)
            trace.tags.append("model")
            if tok2 == EOS_ID:
                break
            continue

        trie = build_trie(suggestions, vocab)
        trace.shadowed_suggestions += trie.shadowed_count
        appended = select_suggestion(model, desc_ids, seq, trie, bucket=bucket)
        seq.extend(appended)
        trace.tags.extend(["tool-selection"] * len(appended))

    trace.tokens = list(seq)
    text = detokenize([t for t in seq if t not in CONTROL_IDS], vocab)
    return text, trace
