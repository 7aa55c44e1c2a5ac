"""``python -m perfbench``: see :mod:`perfbench.parent`."""

import sys

from perfbench.parent import main

if __name__ == "__main__":
    sys.exit(main())
