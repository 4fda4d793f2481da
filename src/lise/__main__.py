"""``python -m lise``: the same command line as the ``lise`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
