"""Layered end-to-end benchmark of the Hercules engine.

``python -m benchmarks.e2e --workload <name> --seed <int>`` generates a
dataset, builds an index from it on disk, opens it, serves a fixed query
set in a closed loop with one client, checks every answer against brute
force and prints the end-to-end metrics (and, with ``--trace 1``, the
per-layer table).  See ``README.md`` in this directory.
"""
