"""Tool-integrated generation: greedy decoding with trie-constrained selection.

The outer loop appends the model's most likely next token, one at a time.
When the trigger token is emitted, the completion tool is asked for
suggestions at the end of the partial function (markers stripped), and a
prefix-trie constrained greedy walk picks one suggestion: at every trie
node the most likely of the node's children is taken, descending until the
first terminal node. The walk stops at the first terminal it reaches, so
a suggestion whose token sequence extends another suggestion is
unreachable; tries report how many suggestions are shadowed this way.

Every choice is made from the n-gram counts, not from a dense distribution:
additive smoothing, (count + alpha) / denominator with alpha > 0, is
strictly increasing in the count (in floating point too, while alpha and
the counts stay far below 2**52), so among the legal ids the most likely
one is the one with the highest count, ties going to the lowest id, and an
id never seen in the context counts zero. This picks exactly what the
argmax of the masked `NGramModel.predict` vector would.

The sequence is kept in a `Prefix` that updates, as each token is
appended, its rendering without control tokens and its count of `=` items on
closed lines. The partial function the tool reads and the text `generate`
returns are that rendering, so no trigger re-renders the prefix; a trigger's
cache key is the count plus a backward scan over the receiver before a
trailing `.`, which passes over control tokens as the tool, reading the
text without them, does.

When the caller hands in the `TaskContext` at the caret, as `mpgen
evaluate` does for each task (scoring then reads the same context), the
tool runs through it and analyses only the function being written. The
context resumes from what the last trigger left: it lexes only the lines
closed since then and the open one, and parses the body only from its last
settled statement on. Without one, as in `mpgen generate`, each trigger
splices the partial function into a snapshot for `tool_complete`. Both
give the same suggestions at a blanked task's caret.

With tool_enabled=False the loop is plain greedy decoding (the vanilla
baseline). A per-generation cache keyed on the receiver (and invalidated
whenever the partial function gains an assignment) holds, per key, the
prefix trie built from the suggestion list and its shadowed count, or None
for an empty list; a hit neither asks the tool nor builds a trie. Cached and
uncached runs produce identical output because the key pins everything the
list depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable, Optional, Sequence

from .analysis.complete import TaskContext, tool_complete
from .analysis.insert import insert
from .lm.ngram import NGramModel, description_bucket
from .lm.tokenizer import split_identifier, tokenize
from .lm.vocab import COMP_ID, CONTROL_IDS, EOS_ID, BOS_ID, Vocab
from .minilang import tokens as tk
from .minilang.render import Renderer
from .repo import CaretPosition, Repository


class InternalInvariantError(RuntimeError):
    """A can't-happen condition was reached; indicates a bug, not bad input."""


@dataclass(frozen=True)
class GenerationConfig:
    max_tokens: int = 256
    cache_enabled: bool = True
    tool_enabled: bool = True

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


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

    def counters(self) -> "GenerationTrace":
        """This trace without its per-token record, which `trace_summary`
        does not read."""
        return replace(self, tokens=[], tags=[])


class TrieNode:
    __slots__ = ("children", "is_terminal")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.is_terminal = False


class PrefixTrie:
    """Trie over suggestion token sequences; shared prefixes share nodes."""

    def __init__(self):
        self.root = TrieNode()
        self._sequences: list[tuple[int, ...]] = []

    def insert(self, seq: Sequence[int]) -> None:
        if not seq:
            raise ValueError("cannot insert an empty token sequence")
        node = self.root
        for tok in seq:
            child = node.children.get(tok)
            if child is None:
                child = TrieNode()
                node.children[tok] = child
            node = child
        node.is_terminal = True
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
    model: NGramModel, bucket: int, prefix: Sequence[int], trie: PrefixTrie
) -> list[int]:
    """Constrained greedy walk from the trie root to its first terminal.

    `bucket` is the description's `description_bucket`, which the caller
    computes once per generation. Returns the appended token ids; the result
    always spells a complete suggestion from the list the trie was built from.
    """
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


class Prefix:
    """The sequence generated so far, kept rendered and counted as it grows.

    `body` renders the sequence without its control tokens, which is the
    partial function the completion tool reads. `closed_assigns` counts the
    `=` items on lines a newline has closed. Only `append` adds tokens; a
    dropped trigger pops its `<COMP>` alone, which is a control token, so it
    touches neither the rendering nor the counts.
    """

    def __init__(self, vocab: Vocab):
        self.vocab = vocab
        self.ids: list[int] = [BOS_ID]
        self.body = Renderer()
        self.closed_assigns = 0
        self._open_assigns = 0

    def append(self, tok: int) -> None:
        self.ids.append(tok)
        if tok in CONTROL_IDS:
            return
        kind, text = self.vocab.item(tok)
        self.body.add(kind, text)
        if kind == tk.NEWLINE:
            self.closed_assigns += self._open_assigns
            self._open_assigns = 0
        elif text == "=":
            self._open_assigns += 1

    def cache_key(self) -> tuple:
        """Cache key for the completion list at the trigger ending the sequence.

        The key pins the resolved-receiver identity (by name) for attribute
        contexts and folds in the number of assignments on completed lines,
        which invalidates the entry whenever the partial function could have
        gained a member, a local, or a rebound receiver. Assignments only
        count once their line is closed: the recovering parser ignores the
        statement still being generated, so a mid-line `=` has no effect on
        scope yet. The receiver is the run of identifier items before a `.`
        that precedes the trigger, read backwards over the sequence. Control
        tokens are passed over, since the tool reads the text without them:
        `self.<COMP>foo.` is the chain `self.foo.`.
        """
        item = self.vocab.item
        before = (item(t) for t in islice(reversed(self.ids), 1, None) if t not in CONTROL_IDS)
        if next(before, (None, None))[1] != ".":
            return ("scope", self.closed_assigns)
        run: list[str] = []
        stop = None  # the item before the run
        for kind, text in before:
            if kind != tk.IDENTIFIER:
                stop = text
                break
            run.append(text)
        receiver = "".join(reversed(run))
        if not run or stop == ".":
            return ("attr-chain", receiver, self.closed_assigns)
        return ("attr", receiver, self.closed_assigns)


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
    *,
    task: Optional[TaskContext] = None,
) -> tuple[str, GenerationTrace]:
    """Generate a function body at pos, returning (canonical text, trace).

    task, if given, is the task context at pos, which the tool completes
    through; without it the tool analyses the whole file with the partial
    function spliced in (`insert`).
    Raises CaretError when pos does not lie in the repository, and
    ValueError when task is at another caret.
    """
    repo.validate_caret(pos)
    if task is not None and task.pos != pos:
        raise ValueError(f"a task context at {task.pos} cannot complete at {pos}")
    vocab = model.vocab
    bucket = description_bucket(tokenize(description, vocab), vocab, model.buckets)
    prefix = Prefix(vocab)
    seq = prefix.ids
    trace = GenerationTrace()
    # a trie and its shadowed count per key; None for an empty suggestion list
    cache: dict[tuple, Optional[tuple[PrefixTrie, int]]] = {}

    while True:
        counts = model.next_counts(bucket, seq)
        # The sequence-start token is never a legal continuation. <EOS> is
        # the lowest legal id, so fully unseen contexts tie-break to it.
        tok = _choose_next(counts, excluded=(BOS_ID,))
        trace.steps += 1
        prefix.append(tok)
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

        key = prefix.cache_key()
        if cfg.cache_enabled and key in cache:
            entry = cache[key]
            trace.cache_hits += 1
        else:
            if task is not None:
                suggestions = task.complete(prefix.body.text())
            else:
                suggestions = tool_complete(*insert(repo, pos, prefix.body.text()))
            trace.tool_invocations += 1
            entry = None
            if suggestions:
                trie = build_trie(suggestions, vocab)
                entry = (trie, trie.shadowed_count)
            if cfg.cache_enabled:
                cache[key] = entry

        if entry is None:
            # Failed trigger: drop the marker and take the best non-trigger
            # token from the same distribution instead.
            seq.pop()
            trace.tags.pop()
            trace.dropped_triggers += 1
            tok2 = _choose_next(counts, excluded=(BOS_ID, COMP_ID))
            prefix.append(tok2)
            trace.tags.append("model")
            if tok2 == EOS_ID:
                break
            continue

        trie, shadowed = entry
        trace.shadowed_suggestions += shadowed
        appended = select_suggestion(model, bucket, seq, trie)
        for t in appended:
            prefix.append(t)
        trace.tags.extend(["tool-selection"] * len(appended))

    trace.tokens = list(seq)
    return prefix.body.text(), trace
