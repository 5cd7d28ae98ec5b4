"""Where the checkout is, and how benchmark children import its ``repro``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"
"""Spans, result files and scratch caches; listed in ``.gitignore``."""


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from this checkout")
