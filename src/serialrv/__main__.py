"""`python -m serialrv`: the same command line as the `serialrv` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
