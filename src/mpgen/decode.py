"""Tool-integrated generation: greedy decoding with trie-constrained selection.

The outer loop appends the model's most likely next token, one at a time.
When the trigger token is emitted, the completion tool is asked for
suggestions at the end of the partial function (markers stripped), and a
prefix-trie constrained greedy walk picks one suggestion: at every trie
node the most likely of the node's children is taken, descending until the
first terminal node. The walk stops at the first terminal it reaches, so
a suggestion whose token sequence extends another suggestion is
unreachable; each trie counts the suggestions shadowed this way when it is
built.

Every choice is made from the n-gram counts, not from a dense distribution:
additive smoothing, (count + alpha) / denominator with alpha > 0, is
strictly increasing in the count (in floating point too, while alpha and
the counts stay far below 2**52), so among the legal ids the most likely
one is the one with the highest count, ties going to the lowest id, and an
id never seen in the context counts zero. This picks exactly what the
argmax of the masked `NGramModel.predict` vector would.

The sequence is kept in a `Prefix` that updates, as each token is
appended, its rendering without control tokens, the items of the line the
caret is on and its count of `=` and `else` items on closed lines. The
partial function the tool reads and the text `generate` returns are that
rendering, so no trigger re-renders the prefix; a trigger's cache key is
read from the caret's line and the count.

When the caller hands in the `TaskContext` at the caret, as
`pipeline.run_model_over_tasks` does for each tool-enabled generation, the
tool runs through it and analyses only the function being written. The
context resumes from what the last trigger left: it lexes only the lines
closed since then and the open one, and parses the body only from its last
settled statement on. Without one, as in `mpgen generate`, each trigger
splices the partial function into a snapshot for `tool_complete`. Both
give the same suggestions at a blanked task's caret.

With tool_enabled=False the loop is plain greedy decoding (the vanilla
baseline). A per-generation cache holds, per key, the prefix trie built
from the suggestion list, or None for an empty list; a hit neither asks the
tool nor builds a trie. The key, the receiver or the scope plus the count,
pins everything the list depends on, and a trigger it cannot pin gets none
and asks the tool (`Prefix.cache_key`). So cached and uncached runs produce
identical output.

Below that cache sits a `TrieMemo`, which the caller may keep for a whole
run (`pipeline.run_model_over_tasks` keeps one per call): it builds the
trie of each distinct suggestion list once, for one vocabulary, however
many generations and tool invocations meet that list. Sharing a trie is exact,
since nothing changes a trie after `build_trie` and `select_suggestion`
only reads it. The memo does not touch the per-generation cache, which
alone decides whether the tool is invoked, so the trace counters are the
same with or without it, and it is used with the cache off too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


class TrieNode:
    __slots__ = ("children", "is_terminal")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.is_terminal = False


class PrefixTrie:
    """Trie over suggestion token sequences; shared prefixes share nodes.

    `shadowed` counts, once, when the trie is built, the sequences that a
    proper prefix of theirs, itself a sequence, leaves unreachable.
    """

    def __init__(self, sequences: Iterable[Sequence[int]]):
        self.root = TrieNode()
        paths = [self._insert(seq) for seq in sequences]
        self.shadowed = sum(any(node.is_terminal for node in path[:-1]) for path in paths)

    def _insert(self, seq: Sequence[int]) -> list[TrieNode]:
        """Insert one sequence; returns the nodes it passes, root excluded."""
        if not seq:
            raise ValueError("cannot insert an empty token sequence")
        node, path = self.root, []
        for tok in seq:
            child = node.children.get(tok)
            if child is None:
                child = TrieNode()
                node.children[tok] = child
            node = child
            path.append(node)
        node.is_terminal = True
        return path


def tokenize_suggestion(suggestion: str, vocab: Vocab) -> list[int]:
    """Subword token ids of one identifier-level suggestion."""
    return [vocab.id(s) for s in split_identifier(suggestion)]


def build_trie(suggestions: Sequence[str], vocab: Vocab) -> PrefixTrie:
    if not suggestions:
        raise ValueError("cannot build a trie from an empty suggestion list")
    return PrefixTrie(tokenize_suggestion(s, vocab) for s in suggestions)


class TrieMemo:
    """The prefix trie of each suggestion list met so far, for one
    vocabulary; a list's trie is built on first use only."""

    def __init__(self, vocab: Vocab):
        self.vocab = vocab
        self._entries: dict[tuple[str, ...], PrefixTrie] = {}

    def entry(self, suggestions: Sequence[str]) -> PrefixTrie:
        """The trie of a non-empty suggestion list."""
        key = tuple(suggestions)
        trie = self._entries.get(key)
        if trie is None:
            trie = self._entries[key] = build_trie(key, self.vocab)
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
    partial function the completion tool reads. The prefix also keeps the
    shown items of the caret's line, the last line the text shows, and
    counts the `=` and `else` items on lines a newline has closed. Indents
    and dedents render nothing mid-line, and the text drops its trailing
    newlines, which close the caret's line without moving the caret. Only
    `append` adds tokens; a dropped trigger pops its `<COMP>` alone, a
    control token, so it touches neither the rendering nor the counts.
    """

    def __init__(self, vocab: Vocab):
        self.vocab = vocab
        self.ids: list[int] = [BOS_ID]
        self.body = Renderer()
        self._closed = 0
        self._open = 0  # `=` and `else` items on the caret's line, while it is open
        self._line: list[tuple[str, str]] = []
        self._line_closed = False
        self._unkeyed = False  # the caret's line holds an `else` or an unterminated string

    def append(self, tok: int) -> None:
        self.ids.append(tok)
        if tok in CONTROL_IDS:
            return
        kind, text = item = self.vocab.item(tok)
        self.body.add(kind, text)
        if kind == tk.NEWLINE:
            self._closed += self._open
            self._open = 0
            self._line_closed = True
        elif kind != tk.INDENT and kind != tk.DEDENT:
            if self._line_closed:
                self._line, self._line_closed, self._unkeyed = [], False, False
            self._line.append(item)
            if text == "=" or text == "else":
                self._open += 1
            # a whole string literal has two quotes, the first and the last character
            if text == "else" or kind == tk.STRING and (text.count('"') != 2 or text[-1] != '"'):
                self._unkeyed = True

    def cache_key(self) -> Optional[tuple]:
        """Cache key for the completion list at the trigger ending the
        sequence, or None when the trigger must ask the tool.

        The list depends on the caret context and on what the partial
        function binds. An attribute context is keyed by its receiver, the
        run of identifier items before the trailing `.` of the caret's line:
        `self.<COMP>foo.` is the chain `self.foo.`. The count stands for the
        bindings: a closed line binds only through an `=`, or drops an `if`
        through an `else`. There is no key when the caret's line

        - is open and ends in an operand (identifier, number, string or
          `)`): it may be a whole assignment, which binds;
        - holds an `else`, whose `if` the parser drops until a block opens
          below it and then keeps;
        - holds a string item that is not one whole literal, which the lexer
          reads as an error running to the end of the line;
        - has a number item just before the receiver run: `x_1.` is the
          items `x`, `_`, `1`, whose run is empty.

        The key reads a keyword as one item, but word items render joined:
        with the words `el` and `se`, the line `el se :` acts as `else`. So
        when a run of the vocabulary's words can spell a keyword, no trigger
        gets a key.
        """
        line, n = self._line, self._closed
        if self._unkeyed or self.vocab.words_spell_keyword:
            return None
        last_kind, last = line[-1] if line else (None, None)
        operand = last_kind in (tk.IDENTIFIER, tk.NUMBER, tk.STRING) or last == ")"
        if operand and not self._line_closed:
            return None
        if last != ".":
            return ("scope", n)
        i = len(line) - 1
        while i > 0 and line[i - 1][0] == tk.IDENTIFIER:
            i -= 1
        receiver = "".join([t for _, t in line[i:-1]])
        stop_kind, stop = line[i - 1] if i > 0 else (None, None)
        if stop_kind == tk.NUMBER:
            return None
        if not receiver or stop == ".":
            return ("attr-chain", receiver, n)
        return ("attr", receiver, n)


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
    tries: Optional[TrieMemo] = None,
) -> tuple[str, GenerationTrace]:
    """Generate a function body at pos, returning (canonical text, trace).

    task, if given, is the task context at pos, which the tool completes
    through; without it the tool analyses the whole file with the partial
    function spliced in (`insert`). tries, if given, is the caller's trie
    memo for model's vocabulary; without it the call keeps its own.
    Raises CaretError when pos does not lie in the repository, and
    ValueError when task is at another caret or tries is bound to another
    vocabulary.
    """
    repo.validate_caret(pos)
    if task is not None and task.pos != pos:
        raise ValueError(f"a task context at {task.pos} cannot complete at {pos}")
    vocab = model.vocab
    if tries is None:
        tries = TrieMemo(vocab)
    elif tries.vocab is not vocab:
        raise ValueError("a trie memo of another vocabulary cannot serve this model")
    bucket = description_bucket(tokenize(description, vocab), vocab, model.buckets)
    prefix = Prefix(vocab)
    seq = prefix.ids
    trace = GenerationTrace()
    # a trie per key; None for an empty suggestion list
    cache: dict[tuple, Optional[PrefixTrie]] = {}

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
            trie = cache[key]
            trace.cache_hits += 1
        else:
            if task is not None:
                suggestions = task.complete(prefix.body.text())
            else:
                suggestions = tool_complete(*insert(repo, pos, prefix.body.text()))
            trace.tool_invocations += 1
            trie = tries.entry(suggestions) if suggestions else None
            if cfg.cache_enabled and key is not None:
                cache[key] = trie

        if trie is None:
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

        trace.shadowed_suggestions += trie.shadowed
        appended = select_suggestion(model, bucket, seq, trie)
        for t in appended:
            prefix.append(t)
        trace.tags.extend(["tool-selection"] * len(appended))

    trace.tokens = list(seq)
    return prefix.body.text(), trace
