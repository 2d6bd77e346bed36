"""Facade-level, per-layer benchmark of the DR-tree reproduction.

See ``bench/README.md``; the entry point is ``python3 bench/run.py``.
"""
