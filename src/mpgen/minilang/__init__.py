"""Lexer, parser, AST and canonical rendering for the MiniPy mini-language."""
