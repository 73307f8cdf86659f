"""Worker process for the ``external`` compressor.

Runs in a fresh interpreter: the wall-clock cost of importing this
module, NumPy, and the plugin registry is precisely the "loading an
interpreter" overhead the paper's Section V quantifies.

When the parent hands down a ``pressio-spanwire/1`` context via
``PRESSIO_TRACE_CONTEXT`` (see :mod:`repro.trace.propagate`), the
worker traces its own execution — init, I/O, and the inner plugin's
stage spans — under a root ``worker`` span and dumps the fragments to
the parent's sink file on exit, success or failure, so the parent can
stitch them into one cross-process tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from ..core.data import PressioData
from ..core.dtype import dtype_from_numpy
from ..core.library import Pressio
from ..trace import propagate as _propagate
from ..trace import runtime as _trace


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--action", choices=("compress", "decompress"),
                        required=True)
    parser.add_argument("--compressor", required=True)
    parser.add_argument("--config", default="{}")
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--dtype", required=True)
    parser.add_argument("--dims", required=True)
    parser.add_argument("--init-cost-ms", type=float, default=0.0)
    return parser.parse_args(argv)


def _run(args: argparse.Namespace) -> int:
    if args.init_cost_ms > 0:
        # simulate expensive initialization (e.g. MPI_Init) with a sleep
        with _trace.stage("worker:init", init_cost_ms=args.init_cost_ms):
            time.sleep(args.init_cost_ms / 1000.0)

    dims = tuple(int(d) for d in args.dims.split(",") if d)
    np_dtype = np.dtype(args.dtype)
    library = Pressio()
    compressor = library.get_compressor(args.compressor)
    if compressor is None:
        print(f"unknown compressor {args.compressor}", file=sys.stderr)
        return 2
    config = json.loads(args.config)
    if config and compressor.set_options(config) != 0:
        print(f"bad options: {compressor.error_msg()}", file=sys.stderr)
        return 3

    if args.action == "compress":
        with _trace.stage("worker:read_input", path=args.input):
            arr = np.fromfile(args.input, dtype=np_dtype).reshape(dims)
        compressed = compressor.compress(PressioData.from_numpy(arr, copy=False))
        with _trace.stage("worker:write_output", path=args.output):
            with open(args.output, "wb") as fh:
                fh.write(compressed.to_bytes())
    else:
        with _trace.stage("worker:read_input", path=args.input):
            with open(args.input, "rb") as fh:
                stream = fh.read()
        template = PressioData.empty(dtype_from_numpy(np_dtype), dims)
        out = compressor.decompress(PressioData.from_bytes(stream), template)
        with _trace.stage("worker:write_output", path=args.output):
            np.ascontiguousarray(out.to_numpy()).tofile(args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    with _propagate.child_scope(_propagate.extract(), "external-worker",
                                pid=os.getpid(), action=args.action,
                                compressor=args.compressor):
        return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
