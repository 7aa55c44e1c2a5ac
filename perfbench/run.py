"""The benchmark command as a script, runnable from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Same options as ``python -m perfbench`` (see :mod:`perfbench.parent`).
"""

import os
import sys

# Run as a script, sys.path[0] is this directory; replace it with the
# repository root so the package imports as ``perfbench``.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench.parent import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
