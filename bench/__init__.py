"""The G-RCA benchmark: raw feed lines -> served diagnosis -> incident report.

See ``bench/README.md``.  Run with ``python3 bench/run.py`` from the
repository root (``python -m bench.run`` works too).
"""
