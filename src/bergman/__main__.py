"""The process entry: `python -m bergman ARGS...` and the `bergman` script.

It decides BLAS threading before numpy is first imported: OpenBLAS runs on
one thread unless the caller set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS.  The program's one parallel layer, the Berezin sweep, runs
its own threads over the CPUs the process may use, and its BLAS calls are
small matrix-vector products, so an OpenBLAS pool would only spin while
idle.  Reports do not depend on the BLAS thread count.  Importing `bergman`
or `bergman.cli` leaves the environment alone.
"""

import os
import sys


def main():
    """Run the command line on sys.argv in this process; return its exit code."""
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
