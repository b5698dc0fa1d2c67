#!/usr/bin/env python3
"""Entry point of the repository benchmark; see ``harness.py``.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 15 --trace 0
"""

import sys
from pathlib import Path

# Byte code of the harness, the operations and the program is cached, as
# an installed package's would be, in the benchmark's own directory and
# never next to the sources.
sys.pycache_prefix = str(Path(__file__).resolve().parent.parent / ".perfbench" / "pycache")
sys.dont_write_bytecode = False

import harness  # noqa: E402

if __name__ == "__main__":
    sys.exit(harness.main())
