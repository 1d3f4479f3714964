"""Pytest bootstrap: make the in-tree ``src`` layout importable.

The package is normally installed with ``pip install -e .``; this fallback
lets the test and benchmark suites run from a plain checkout as well.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
