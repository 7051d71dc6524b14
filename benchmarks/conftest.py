"""Make the benchmark modules importable as ``common`` & co.

The figure checks run in tier-1 (``testpaths``); the served-path
benchmark's own tests under ``e2e/`` are collected only when named
(``python -m pytest benchmarks/e2e/tests``).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

collect_ignore = ["e2e"]
