"""mpgen: completion-tool-integrated code generation for MiniPy repositories.

The package wires a small static analyzer for the MiniPy mini-language into
the decoding loop of a trainable count-based language model: a reserved
trigger token makes the model ask the autocompletion tool for valid
identifiers, and a prefix-trie constrained greedy search picks one.
"""

__version__ = "0.1.0"


class DataError(Exception):
    """Missing or malformed input artifacts (exit code 2 at the CLI)."""


from .repo import CaretPosition, Repository

__all__ = ["CaretPosition", "DataError", "Repository", "__version__"]
