"""The command-line entry point: ``python -m gap_gauge`` and the ``gap-gauge`` script.

numpy's bundled OpenBLAS starts a worker thread for each further core when
it loads (about 0.08 s of CPU on two cores), and nothing in the package
calls BLAS. So the CLI asks for one BLAS thread before numpy is imported; a
value of ``OPENBLAS_NUM_THREADS`` set by the user is kept. Importing
``gap_gauge`` as a library leaves the environment alone.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy loads here, after the default)

if __name__ == "__main__":
    sys.exit(main())
