"""Make the program under test importable when pytest runs the
benchmark's own tests (``python -m pytest perfbench``)."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
