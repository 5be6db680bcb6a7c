"""Two-clock benchmark of the DDStore simulator (see README.md)."""
