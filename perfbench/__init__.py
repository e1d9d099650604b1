"""Reuse-vs-exact benchmark of the MERCURY reproduction (see README.md)."""
