#!/usr/bin/env python3
"""Regenerate the bundled MiniPy corpus (corpus/train, corpus/eval).

The corpus is fully deterministic (pure index arithmetic, no randomness) and
is committed to the repository; this script only exists to rebuild or resize
it:

    python3 tools/gen_corpus.py [OUT] [--train N] [--eval M]

writes N train and M eval repositories (14 and 6, the bundled corpus, by
default) under OUT (the repository's corpus/ by default). A count the word
grids cannot serve exits with a message naming the largest one they can.

The layout is engineered so that a small count-based model can learn the
function-family skeletons from the train split while every repository-level
dependency name stays repository-unique:

- User-defined names are word pairs. First-position and second-position
  words come from globally disjoint pools, so the bigram statistics around
  an identifier boundary are unambiguous. Words recur across repositories
  and splits, but each ordered pair belongs to exactly one repository, and
  eval pairs reuse only words the train split already used in the same
  template slot.
- Docstrings mention name words only as complete pairs whose hash
  contributions cancel modulo the bucket count, and each function family
  gets a name prefix chosen so its descriptions land in a family-specific
  hash bucket (16 families, 16 buckets, one each). That makes the model's
  coarse description conditioning informative at this corpus size.
- Within any family, each attribute-read site is followed by a distinct
  continuation token, meant to keep greedy decoding out of repetition
  loops after a suggestion is spliced in. It does not keep every
  generation out: 30 of the 252 benchmark generations (12 tool, 18
  vanilla) run to `max_tokens` repeating a line, such as
  `self._kale_tern = 0`, or a term, such as `+ value`.
- Repositories with index % 3 == 2 share the literal attribute "crest",
  giving the tool-free baseline a nonzero dependency-coverage floor.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mpgen.lm.ngram import _fnv1a as fnv1a  # noqa: E402  (the model's description hash)
from mpgen.lm.tokenizer import token_strings  # noqa: E402

BUCKETS = 16
N_TRAIN_REPOS = 14
N_EVAL_REPOS = 6
# The default output, found from this script and not from the working
# directory, since main deletes its output directory first.
CORPUS_DIR = os.path.join(ROOT, "corpus")
SHARED_PAIR = ("crest", "ridge")  # both hash residue 0: shared classes keep their family bucket

CANDIDATE_WORDS = """
amber basil cedar dune ember fern garnet hazel iris jade kelp lotus maple
nectar olive pearl quartz raven sage topaz umber wren aspen birch clover
elder fennel ginger indigo laurel mallow nutmeg orchid poppy rowan tansy
willow acorn bramble coral brook cliff glade grove creek knoll vale hollow
frost mist dew rain hail sleet cloud storm gale breeze tide wave reef shore
sand pebble slate flint chalk clay loam peat shale marl gravel boulder ridge
marsh fen moor heath glen copper bronze nickel cobalt zinc iron steel brass
chrome silver ingot anvil forge kiln loom spool thread fiber resin tallow
quill parchment vellum ink sepia umbra ochre madder woad weld henna
barley oat rye spelt millet sorghum maize bran chaff straw fodder silage
ash bay elm oak fir ivy moss reed sedge rush flag bent furze ling whin
broom gorse myrtle sallow osier alder beech holly lime plane poplar walnut
almond peach plum cherry apple pear quince medlar mulberry sloe damson
apricot melon gourd marrow squash pumpkin turnip swede beet chard kale
eagle heron crane plover finch siskin linnet merlin osprey kestrel tern
gull skua petrel gannet murre auk puffin cormorant grebe loon bittern
badger otter stoat weasel marten ferret vole shrew hare lynx elk roe
granite basalt gneiss schist quartzite tuff pumice obsidian agate beryl
opal onyx jasper ruby spinel zircon marble dolomite chert travertine
""".split()

PARAMS = {"value", "amount", "delta", "flag", "n", "text", "factor", "limit", "obj", "acc"}

# Family prefix synonym lists; one is chosen per family so that every family
# lands in its own description bucket.
PREFIX_CHOICES = {
    "setupA": ["setup", "ready", "boot", "rig", "outfit", "stage"],
    "get": ["get", "read", "peek", "grab", "view", "show"],
    "put": ["put", "place", "stick", "plant", "pose", "lodge"],
    "bump": ["bump", "lift", "grow", "climb", "hike", "step"],
    "mass": ["mass", "heft", "bulk", "girth", "span", "stretch"],
    "prep": ["prep", "mount", "arm", "wind", "tune", "prime"],
    "seed": ["seed", "sow", "fill", "stock", "charge", "pack"],
    "apply": ["apply", "weigh", "temper", "gauge", "meter", "grade"],
    "fetch": ["fetch", "pull", "draw", "bring", "carry", "haul"],
    "tally": ["tally", "accrue", "amass", "collect", "bank", "pool"],
    "label": ["label", "tag", "badge", "brand", "stamp", "title"],
    "blend": ["blend", "whisk", "stir", "froth", "churn", "knead"],
    "scale": ["scale", "widen", "inflate", "magnify", "fan", "swell"],
    "shift": ["shift", "nudge", "slide", "move", "budge", "steer"],
    "gate": ["gate", "sluice", "vet", "screen", "admit", "usher"],
    "dual": ["dual", "twin", "echo", "mirror", "repeat", "damp"],
}

# Description prototypes used to steer bucket assignment; {p} is the family
# prefix, {f}/{s} a dummy slot pair (its hash contribution cancels).
FAMILY_PROTO = {
    "setupA": 'def {p}_{f}_{s}(self): Prepare the {f} {s} and the {f} {s}',
    "get": 'def {p}_{f}_{s}(self): Return the stored {f} {s}',
    "put": 'def {p}_{f}_{s}(self, value): Replace the stored {f} {s} with value',
    "bump": 'def {p}_{f}_{s}(self, amount, delta): Increase the stored {f} {s} by amount and trim delta',
    "mass": 'def {p}_{f}_{s}(self, factor, amount, delta): Scale the stored {f} {s} by factor plus amount minus delta',
    "prep": 'def {p}_{f}_{s}(self): Prepare the stored {f} {s}',
    "seed": 'def {p}_{f}_{s}(self, value, delta): Load the stored {f} {s} from value plus delta',
    "apply": 'def {p}_{f}_{s}(self, value): Scale the given value by the stored {f} {s}',
    "fetch": 'def {p}_{f}_{s}(self): Read the {f} {s} from a fresh container',
    "tally": 'def {p}_{f}_{s}(self, n): Accumulate the stored {f} {s} n times',
    "label": 'def {p}_{f}_{s}(self, text, delta): Join the given text with the stored {f} {s} minus delta',
    "blend": 'def {p}_{f}_{s}(value, factor, delta): Multiply the given value by factor and add delta',
    "scale": 'def {p}_{f}_{s}(value, factor): Multiply the given value by factor',
    "shift": 'def {p}_{f}_{s}(value, delta): Add delta to the given value',
    "gate": 'def {p}_{f}_{s}(value, flag, delta): Pass the given value plus delta through when flag is one else zero',
    "dual": 'def {p}_{f}_{s}(value): Return the given value doubled',
}

SUFFIXES = ["Box", "Unit", "Desk", "Rack", "Node", "Case"]

# Pair slots, in per-repository consumption order: five utility-function
# name pairs, class A's two attributes plus its setup-method name, class B's
# attribute, class C's attribute, class D's two attributes plus setup name.
SLOTS = ["t0", "t1", "t2", "t3", "t4", "p0", "p1", "sA", "p2", "p3", "q0", "q1", "sD"]


def bucket_of(description: str) -> int:
    return sum(fnv1a(t) for t in token_strings(description)) % BUCKETS


def build_pools() -> tuple[dict[int, list[str]], dict[int, list[str]]]:
    """Residue classes 1..7 feed first-position pools, 9..15 second-position."""
    reserved = PARAMS | set(SHARED_PAIR) | {"self"} | {w for ws in PREFIX_CHOICES.values() for w in ws}
    classes: dict[int, list[str]] = {r: [] for r in range(BUCKETS)}
    seen = set()
    for w in CANDIDATE_WORDS:
        if not w.isidentifier() or w in reserved or w in seen:
            continue
        seen.add(w)
        classes[fnv1a(w) % BUCKETS].append(w)
    firsts = {r: sorted(classes[r]) for r in range(1, 8)}
    seconds = {r: sorted(classes[r]) for r in range(9, 16)}
    return firsts, seconds


def allocate_pairs(n_train: int, n_eval: int) -> dict[tuple[str, int], tuple[str, str]] | None:
    """(slot, repo) -> (first word, second word); pairs globally unique.
    None when a slot's word grid runs out of pairs for the counts.

    Train repositories walk each slot's word grid along diagonal stripes;
    eval repositories may only use words the train split already used in the
    same slot and position, so every eval subword has in-slot statistics
    while every eval pair is new.
    """
    firsts, seconds = build_pools()
    combos = [(1, 15), (2, 14), (3, 13), (4, 12), (5, 11), (6, 10), (7, 9)]
    used: set[tuple[str, str]] = set()
    out: dict[tuple[str, int], tuple[str, str]] = {}
    for si, slot in enumerate(SLOTS):
        a, b = combos[si % len(combos)]
        fpool = firsts[a][si % 3:] + firsts[a][: si % 3]
        spool = seconds[b][si % 5:] + seconds[b][: si % 5]
        lf, ls = len(fpool), len(spool)
        cells = sorted(
            ((i, j) for i in range(lf) for j in range(ls)),
            key=lambda ij: ((ij[0] + ij[1]) % max(lf, ls), ij[0]),
        )
        grid = [(fpool[i], spool[j]) for i, j in cells]
        it = iter(grid)
        train_f: set[str] = set()
        train_s: set[str] = set()
        for r in range(n_train):
            pair = next((p for p in it if p not in used), None)
            if pair is None:
                return None
            used.add(pair)
            # Shared repositories replace their p2 pair with the shared
            # attribute, so that pair never reaches the corpus and must not
            # count as eval coverage.
            if not (slot == "p2" and r % 3 == 2):
                train_f.add(pair[0])
                train_s.add(pair[1])
            out[(slot, r)] = pair
        eval_grid = [
            p for p in grid
            if p not in used and p[0] in train_f and p[1] in train_s
        ]
        if len(eval_grid) < n_eval:
            return None
        for r, pair in enumerate(eval_grid[:n_eval], start=n_train):
            used.add(pair)
            out[(slot, r)] = pair
    return out


def size_limit(n_train: int, n_eval: int) -> str:
    """Why the word grids cannot serve the counts: the largest train count
    they serve, or, when n_train fits, the largest eval count beside it: the
    count before the first that does not fit."""
    if allocate_pairs(n_train, 0) is None:
        most = next(n for n in itertools.count() if allocate_pairs(n + 1, 0) is None)
        return f"the word grids serve at most {most} train repositories, not {n_train}"
    most = next(n for n in itertools.count() if allocate_pairs(n_train, n + 1) is None)
    return (
        f"beside {n_train} train repositories the word grids serve at most {most} eval"
        f" repositories, not {n_eval}"
    )


def assign_prefixes() -> dict[str, str]:
    """Choose one prefix per family so family buckets are pairwise distinct."""
    families = list(FAMILY_PROTO)
    options: dict[str, list[tuple[str, int]]] = {}
    for fam in families:
        opts = []
        for p in PREFIX_CHOICES[fam]:
            desc = FAMILY_PROTO[fam].format(p=p, f="amber", s="amber")
            opts.append((p, bucket_of(desc)))
        options[fam] = opts

    assignment: dict[str, str] = {}

    def solve(i: int, taken: set[int]) -> bool:
        if i == len(families):
            return True
        fam = families[i]
        for p, b in options[fam]:
            if b not in taken:
                assignment[fam] = p
                if solve(i + 1, taken | {b}):
                    return True
                del assignment[fam]
        return False

    if not solve(0, set()):
        sys.exit("no collision-free prefix assignment; extend PREFIX_CHOICES")
    return assignment


def cap(word: str) -> str:
    return word[0].upper() + word[1:]


def repo_files(r: int, pairs, prefix) -> dict[str, str]:
    def nm(slot: str) -> str:
        f, s = pairs[(slot, r)]
        return f"{f}_{s}"

    def ws(slot: str) -> str:
        f, s = pairs[(slot, r)]
        return f"{f} {s}"

    shared = r % 3 == 2
    a_cls = cap(pairs[("p0", r)][0]) + SUFFIXES[r % 6]
    b_cls = cap(pairs[("p2", r)][0]) + SUFFIXES[(r + 1) % 6]
    c_cls = cap(pairs[("p3", r)][0]) + SUFFIXES[(r + 2) % 6]
    d_cls = cap(pairs[("q0", r)][0]) + SUFFIXES[(r + 3) % 6]
    b_attr = "_".join(SHARED_PAIR) if shared else nm("p2")
    b_words = " ".join(SHARED_PAIR) if shared else ws("p2")

    utils = f'''def {prefix["scale"]}_{nm("t0")}(value, factor):
    "Multiply the given value by factor"
    return value * factor

def {prefix["shift"]}_{nm("t1")}(value, delta):
    "Add delta to the given value"
    return value + delta

def {prefix["gate"]}_{nm("t2")}(value, flag, delta):
    "Pass the given value plus delta through when flag is one else zero"
    if flag == 1:
        return value + delta
    return 0

def {prefix["dual"]}_{nm("t3")}(value):
    "Return the given value doubled"
    acc = value + value
    return acc

def {prefix["blend"]}_{nm("t4")}(value, factor, delta):
    "Multiply the given value by factor and add delta"
    return value * factor + delta

def probe_{nm("t4")}(value):
    return value * 3
'''

    core = f'''class {a_cls}:
    def {prefix["setupA"]}_{nm("sA")}(self):
        "Prepare the {ws("p0")} and the {ws("p1")}"
        self._{nm("p0")} = 0
        self._{nm("p1")} = 1

    def {prefix["get"]}_{nm("p0")}(self):
        "Return the stored {ws("p0")}"
        return self._{nm("p0")}

    def {prefix["put"]}_{nm("p0")}(self, value):
        "Replace the stored {ws("p0")} with value"
        self._{nm("p0")} = value
        return value

    def {prefix["bump"]}_{nm("p1")}(self, amount, delta):
        "Increase the stored {ws("p1")} by amount and trim delta"
        acc = self._{nm("p1")} + amount
        return acc - delta

    def {prefix["mass"]}_{nm("p1")}(self, factor, amount, delta):
        "Scale the stored {ws("p1")} by factor plus amount minus delta"
        return self._{nm("p1")} * factor + amount - delta

class {b_cls}:
    def {prefix["prep"]}_{b_attr}(self):
        "Prepare the stored {b_words}"
        self._{b_attr} = 0

    def {prefix["get"]}_{b_attr}(self):
        "Return the stored {b_words}"
        return self._{b_attr}

    def {prefix["seed"]}_{b_attr}(self, value, delta):
        "Load the stored {b_words} from value plus delta"
        self._{b_attr} = value + delta
        return value

class {d_cls}:
    def {prefix["setupA"]}_{nm("sD")}(self):
        "Prepare the {ws("q0")} and the {ws("q1")}"
        self._{nm("q0")} = 0
        self._{nm("q1")} = 1

    def {prefix["bump"]}_{nm("q1")}(self, amount, delta):
        "Increase the stored {ws("q1")} by amount and trim delta"
        acc = self._{nm("q1")} + amount
        return acc - delta

    def {prefix["mass"]}_{nm("q1")}(self, factor, amount, delta):
        "Scale the stored {ws("q1")} by factor plus amount minus delta"
        return self._{nm("q1")} * factor + amount - delta
'''

    service = f'''from utils import {prefix["scale"]}_{nm("t0")}
from core import {a_cls}

class {c_cls}:
    def {prefix["prep"]}_{nm("p3")}(self):
        "Prepare the stored {ws("p3")}"
        self._{nm("p3")} = 2

    def {prefix["apply"]}_{nm("p3")}(self, value):
        "Scale the given value by the stored {ws("p3")}"
        return {prefix["scale"]}_{nm("t0")}(value, self._{nm("p3")})

    def {prefix["fetch"]}_{nm("p0")}(self):
        "Read the {ws("p0")} from a fresh container"
        obj = {a_cls}()
        return obj.{prefix["get"]}_{nm("p0")}()

    def {prefix["tally"]}_{nm("p3")}(self, n):
        "Accumulate the stored {ws("p3")} n times"
        acc = 0
        while n > 0:
            acc = acc + self._{nm("p3")}
            n = n - 1
        return acc

    def {prefix["label"]}_{nm("p3")}(self, text, delta):
        "Join the given text with the stored {ws("p3")} minus delta"
        return text + self._{nm("p3")} - delta
'''
    return {"utils.mp": utils, "core.mp": core, "service.mp": service}


def main(
    out_root: str | None = None, n_train: int = N_TRAIN_REPOS, n_eval: int = N_EVAL_REPOS
) -> None:
    """Write a corpus of n_train train and n_eval eval repositories under
    out_root, the repository's corpus/ by default, replacing whatever is
    there. Exits with a message when the word grids cannot serve the counts."""
    out_root = CORPUS_DIR if out_root is None else out_root
    if n_train < 1 or n_eval < 1:
        sys.exit(f"gen_corpus: repository counts must be at least 1, not {n_train} and {n_eval}")
    pairs = allocate_pairs(n_train, n_eval)
    if pairs is None:
        sys.exit(f"gen_corpus: {size_limit(n_train, n_eval)}")
    prefix = assign_prefixes()
    print("family buckets:")
    for fam in FAMILY_PROTO:
        desc = FAMILY_PROTO[fam].format(p=prefix[fam], f="amber", s="amber")
        print(f"  {fam:8s} prefix={prefix[fam]:8s} bucket={bucket_of(desc)}")
    if os.path.exists(out_root):
        shutil.rmtree(out_root)
    for r in range(n_train + n_eval):
        split = "train" if r < n_train else "eval"
        repo_dir = os.path.join(out_root, split, f"repo{r:02d}")
        os.makedirs(repo_dir)
        for fname, content in repo_files(r, pairs, prefix).items():
            with open(os.path.join(repo_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(content)
    print(f"wrote {n_train} train + {n_eval} eval repositories under {out_root}/")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the MiniPy corpus.")
    parser.add_argument("out_root", nargs="?", help="output directory (default: corpus/)")
    parser.add_argument("--train", type=int, default=N_TRAIN_REPOS, help="train repositories")
    parser.add_argument("--eval", type=int, default=N_EVAL_REPOS, help="eval repositories")
    args = parser.parse_args()
    main(args.out_root, args.train, args.eval)
