"""``python -m pegrec``: the command-line interface of ``pegrec.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
