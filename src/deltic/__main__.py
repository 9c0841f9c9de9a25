"""`python -m deltic`: the deltic command line (cli.main)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
