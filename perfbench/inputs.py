"""Seeded inputs and compressor configurations for every workload.

The seed is the benchmark's argument; the program receives only the
generated arrays.  Fields are the synthetic SDRBench analogs from
:mod:`repro.datasets`, at the shapes and dtypes SDRBench stores.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["Config", "Case", "CONFIGS", "INPROCESS_CONFIGS",
           "SMALL_CONFIGS", "SERVED_CONFIGS", "PAPER_RELS", "SMALL_RELS",
           "SERVED_RELS", "options_for", "make_compressor",
           "periodic_variant", "paper_fields", "paper_cases", "small_blocks",
           "small_cases", "served_arrays", "served_cases"]


@dataclasses.dataclass(frozen=True)
class Config:
    """A plugin id plus the options every use of it shares."""

    label: str
    plugin: str
    options: tuple = ()
    inner: str | None = None  # meta-compressor leaf, set before options


CONFIGS = {
    "sz": Config("sz", "sz"),
    "zfp": Config("zfp", "zfp"),
    "mgard": Config("mgard", "mgard"),
    "sz_threadsafe": Config("sz_threadsafe", "sz_threadsafe"),
    "sz_omp": Config("sz_omp", "sz_omp", (("sz_omp:nthreads", 2),)),
    "chunking": Config("chunking", "chunking", (("chunking:nthreads", 2),),
                       inner="sz_threadsafe"),
}

#: the workloads' configuration sets.  ``sz_threadsafe`` is the
#: executors' serial leaf: on ``paper_fields`` only the traced run's
#: baseline, on ``small_blocks`` also a workload configuration, since
#: its per-call cost is what that workload is about
INPROCESS_CONFIGS = ("sz", "zfp", "mgard", "sz_omp", "chunking")
SMALL_CONFIGS = INPROCESS_CONFIGS + ("sz_threadsafe",)
SERVED_CONFIGS = ("sz", "zfp")
#: value-range-relative error bounds of each workload
PAPER_RELS = (1e-4, 1e-2)
SMALL_RELS = (1e-4, 1e-3, 1e-2)
SERVED_RELS = (1e-4, 1e-2)


@dataclasses.dataclass
class Case:
    """One (input, configuration, bound) the workload round-trips."""

    key: str
    array: np.ndarray
    config: Config
    rel: float
    abs_bound: float

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)


def options_for(config: Config, abs_bound: float) -> dict:
    opts = dict(config.options)
    opts["pressio:abs"] = float(abs_bound)
    return opts


def make_compressor(library, config: Config, abs_bound: float):
    """A configured plugin instance; raises if any option is refused."""
    comp = library.get_compressor(config.plugin)
    if config.inner is not None:
        key = f"{config.plugin}:compressor"
        if comp.set_options({key: config.inner}) != 0:
            raise RuntimeError(comp.error_msg())
    if comp.set_options(options_for(config, abs_bound)) != 0:
        raise RuntimeError(comp.error_msg())
    return comp


def _value_range(arr: np.ndarray) -> float:
    return float(arr.max()) - float(arr.min())


def _sub_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def periodic_variant(arr: np.ndarray, seed: int, axes) -> np.ndarray:
    """A seeded circular shift and reflection of ``arr`` along ``axes``.

    The synthetic fields are built by FFT, so they are periodic: a shift
    or reflection is another field with the same spectrum and value
    range (for 1-D hacc particles, a reordering of the same particles).
    Different seeds then give different arrays whose statistics,
    and so whose compression ratio and speed, do not vary with the seed.
    """
    rng = np.random.default_rng(seed)
    out = np.roll(arr, tuple(int(rng.integers(arr.shape[a])) for a in axes),
                  axis=tuple(axes))
    for a in axes:
        if rng.random() < 0.5:
            out = np.flip(out, axis=a)
    return np.ascontiguousarray(out)


#: axes along which each dataset's field is periodic and homogeneous
#: (hurricane_cloud and scale_letkf vary with height on axis 0)
_SHIFT_AXES = {"nyx": (0, 1, 2), "hurricane_cloud": (1, 2),
               "scale_letkf": (1, 2), "hacc": (0,)}


def _variants(name: str, shape, seeds, dtype=np.float32
              ) -> list[np.ndarray]:
    """Periodic variants of one dataset's reference field."""
    from repro import datasets

    gen = datasets.DATASET_GENERATORS[name]
    ref = (gen(shape[0]) if name == "hacc" else gen(shape)).astype(dtype)
    return [periodic_variant(ref, s, _SHIFT_AXES[name]) for s in seeds]


def paper_fields(seed: int, side: int = 128) -> list[tuple[str, np.ndarray]]:
    """128^3 float32 nyx and hurricane_cloud fields (8 MiB each).

    At this size one draw of a steep-spectrum field varies a lot from
    the next (its value range, and with it a relative bound, hangs on a
    few extreme modes), so the seed picks a periodic variant of each
    dataset's reference field (:func:`periodic_variant`); every workload
    draws its inputs this way.
    """
    shape = (side, side, side)
    return [(name, _variants(name, shape, [_sub_seed(seed, k)])[0])
            for k, name in enumerate(("nyx", "hurricane_cloud"), 1)]


def paper_cases(fields) -> list[Case]:
    cases = []
    for name, arr in fields:
        vr = _value_range(arr)
        for label in INPROCESS_CONFIGS:
            for rel in PAPER_RELS:
                cases.append(Case(f"{name}/{label}@{rel:g}", arr,
                                  CONFIGS[label], rel, rel * vr))
    return cases


def small_blocks(seed: int, per_kind: int = 6
                 ) -> list[tuple[str, np.ndarray]]:
    """24^3 float64/float32 grid blocks plus 1-D hacc particle blocks.

    Each block is a seeded periodic variant of its dataset's reference
    field, as in :func:`paper_fields`.
    """
    blocks = []
    for g, name in enumerate(("nyx", "scale_letkf", "hurricane_cloud",
                              "hacc")):
        shape = (24 ** 3,) if name == "hacc" else (24, 24, 24)
        for d, dtype in enumerate((np.float64, np.float32)):
            seeds = [_sub_seed(seed, 10 + g, i, d) for i in range(per_kind)]
            for i, arr in enumerate(_variants(name, shape, seeds, dtype)):
                blocks.append((f"{name}{i}.{np.dtype(dtype).name}", arr))
    return blocks


def small_cases(blocks) -> list[Case]:
    """Every block through every configuration, bounds in rotation.

    The rotation gives each configuration every bound equally often on
    every block kind, so the mix of work does not change with the seed.
    """
    cases = []
    for b, (name, arr) in enumerate(blocks):
        vr = _value_range(arr)
        for c, label in enumerate(SMALL_CONFIGS):
            rel = SMALL_RELS[(b + c) % len(SMALL_RELS)]
            cases.append(Case(f"{name}/{label}@{rel:g}", arr,
                              CONFIGS[label], rel, rel * vr))
    return cases


def served_arrays(seed: int, caller: int, n_small: int = 18,
                  n_large: int = 6) -> list[tuple[str, np.ndarray]]:
    """float32 24^3 and 64^3 arrays in a 3:1 mix for one caller.

    Like :func:`paper_fields`, each array is a seeded periodic variant
    of a reference field, so the mix's statistics do not vary with the
    seed while every array differs.
    """
    names = ("nyx", "hurricane_cloud", "scale_letkf")
    arrays = [None] * (n_small + n_large)
    for side, lo, hi in ((24, 0, n_small), (64, n_small, n_small + n_large)):
        for k, name in enumerate(names):
            idx = range(lo + k, hi, len(names))
            seeds = [_sub_seed(seed, 40 + caller, i) for i in idx]
            for i, arr in zip(idx, _variants(name, (side,) * 3, seeds)):
                arrays[i] = (f"c{caller}.{name}{i}.{side}", arr)
    return arrays


def served_cases(arrays) -> list[Case]:
    cases = []
    for name, arr in arrays:
        vr = _value_range(arr)
        for label in SERVED_CONFIGS:
            for rel in SERVED_RELS:
                cases.append(Case(f"{name}/{label}@{rel:g}", arr,
                                  CONFIGS[label], rel, rel * vr))
    return cases
