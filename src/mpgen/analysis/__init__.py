"""Static analysis: scope resolution, autocompletion, lint, and insertion."""
