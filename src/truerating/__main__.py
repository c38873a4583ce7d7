"""``python -m truerating``, and `entry`, the ``truerating`` console script."""

import gc
import sys

from .cli import main


def entry() -> int:
    """Run the command line as a process of its own."""
    # The package's imports leave about 20k objects that the garbage
    # collector tracks, and each full collection, several of them at exit,
    # walks them all; frozen, they are skipped. Not in `main`, which tests
    # call in-process: their garbage would never be collected.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
