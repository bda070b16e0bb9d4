"""`python -m loadcast`: the commands of the `loadcast` script, from a
checkout that is only on the path."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
