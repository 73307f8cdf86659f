"""The shared executor's group schedule: one thread per clone at a time."""

import threading
import time

import numpy as np
import pytest

from repro import PressioData
from repro.compressors.noop import NoopCompressor
from repro.core.registry import compressor_registry

_PROBE_ID = "test_reentry_probe"


class _ReentryProbe(NoopCompressor):
    """Advertises full re-entrancy, and records any second thread that
    enters one instance while another thread is still inside it."""

    overlaps: list = []
    threads: set = set()

    def __init__(self) -> None:
        super().__init__()
        self._busy = threading.Lock()

    def _compress(self, input: PressioData) -> PressioData:
        _ReentryProbe.threads.add(threading.get_ident())
        if not self._busy.acquire(blocking=False):
            _ReentryProbe.overlaps.append(id(self))
            return super()._compress(input)
        try:
            time.sleep(0.0005)  # widen the window a shared clone would hit
            return super()._compress(input)
        finally:
            self._busy.release()


@pytest.fixture()
def probe():
    compressor_registry.register(_PROBE_ID, _ReentryProbe)
    _ReentryProbe.overlaps = []
    _ReentryProbe.threads = set()
    yield _ReentryProbe
    compressor_registry.unregister(_PROBE_ID)


def test_no_clone_is_entered_by_two_threads(library, probe):
    c = library.get_compressor("chunking")
    assert c.set_options({"chunking:compressor": _PROBE_ID,
                          "chunking:nthreads": 4,
                          "chunking:chunk_size": 64}) == 0
    data = PressioData.from_numpy(np.arange(40 * 64, dtype=np.float64))
    for _ in range(20):
        c.compress(data)
    # the chunks really ran on pool threads, not serially on this one
    assert probe.threads and threading.get_ident() not in probe.threads
    assert probe.overlaps == []
