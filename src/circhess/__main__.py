"""`python -m circhess`: the command-line front end (see cli.py)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
