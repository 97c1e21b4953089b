"""Vocabulary, tokenizer, and the trainable count-based language model."""
