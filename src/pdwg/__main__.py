"""`python -m pdwg`: the `pdwg` command without an installed script."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
