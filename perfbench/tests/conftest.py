"""Make the benchmark modules and the program importable in its tests."""

import sys
from pathlib import Path

__all__ = []

_BENCH = Path(__file__).resolve().parents[1]
for _path in (_BENCH, _BENCH.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
