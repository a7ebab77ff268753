"""Make the benchmark modules and the program importable in its tests:
``python -m pytest e2ebench`` from the root of a checkout."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
