"""The command-line entry point: ``python -m gap_gauge`` and the ``gap-gauge`` script.

numpy's bundled OpenBLAS starts a worker thread for each further core when
it loads (about 0.08 s of CPU on two cores), and nothing in the package
calls BLAS. So the CLI asks for one BLAS thread before numpy is imported; a
value of ``OPENBLAS_NUM_THREADS`` set by the user is kept.

The CLI is imported with the cyclic collector paused (``gc.disable()``):
the imports would otherwise run about 32 generation-0 and 2 generation-1
collections, some 2.7 ms of every command on a 2-vCPU host. Then
``gc.freeze()`` moves every object the imports created (numpy's and
gap_gauge's modules, functions and classes, which live as long as the
process) into the collector's permanent generation, so neither a later full
collection nor the one at interpreter exit walks them again; on a 2-vCPU
host that took about a tenth off a ``simulate`` or ``sweep`` child. The
collector is switched back on whether or not the import succeeds. The
import's cyclic garbage, about 346 unreachable objects, is frozen with the
rest: a ``gc.collect()`` to free it costs 3.5 to 4 ms, more than the pause
saves. Since that garbage is not freed as the import goes, the pause raises
a command's peak RSS by about 0.3 MiB. ``cli`` itself loads
``gap_gauge.empirical`` only for ``estimate``.

Importing ``gap_gauge`` as a library leaves the environment and the collector
alone.
"""

import gc
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

gc.disable()
try:
    from .cli import main  # noqa: E402  (numpy loads here, after the default)
finally:
    gc.freeze()
    gc.enable()

if __name__ == "__main__":
    sys.exit(main())
