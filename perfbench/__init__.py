"""The repository's layered benchmark.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one named workload against the public ``repro``
API, checks every output, and prints its metrics.  See
``perfbench/README.md`` for the workloads, the metrics, and which
end-to-end metric each per-layer metric should move.
"""

import ctypes
import signal


def die_with_parent() -> None:
    """``preexec_fn``: the child gets SIGTERM when its parent dies.

    A benchmark process killed mid-run must not leave a daemon behind.
    """
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PDEATHSIG
