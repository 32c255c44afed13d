"""Rewrite the fixed outputs under tests/golden/ from the current code.

Run from the repository root: ``PYTHONPATH=src python tests/regen_golden.py``.
A change that runs it names, in CHANGES.md, every value that moved and why.
"""

import test_golden

if __name__ == "__main__":
    test_golden.regenerate()
