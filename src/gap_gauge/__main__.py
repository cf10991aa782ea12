"""The command-line entry point: ``python -m gap_gauge`` and the ``gap-gauge`` script.

numpy's bundled OpenBLAS starts a worker thread for each further core when
it loads (about 0.08 s of CPU on two cores), and nothing in the package
calls BLAS. So the CLI asks for one BLAS thread before numpy is imported; a
value of ``OPENBLAS_NUM_THREADS`` set by the user is kept.

Once the CLI is imported, ``gc.freeze()`` moves every object the imports
created (numpy's and gap_gauge's modules, functions and classes, which live
as long as the process) into the collector's permanent generation, so
neither a later full collection nor the one at interpreter exit walks them
again; on a 2-vCPU host that took about a tenth off a ``simulate`` or
``sweep`` child. It pins no garbage: ``gc.collect()`` right after
``import gap_gauge.cli`` finds nothing. ``cli`` itself loads
``gap_gauge.empirical`` only for ``estimate``.

Importing ``gap_gauge`` as a library leaves the environment and the collector
alone.
"""

import gc
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy loads here, after the default)

gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
