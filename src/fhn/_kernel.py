"""The compiled step loop of `dynamics.integrate` and the passes over its
runs, built at the first import.

The library exports `rodas_run` (the step loop of `integrate`),
`rodas_crossing` (`Trajectory.crossing`), `rodas_divergence`
(`dynamics._divergence`), `rodas_sample` (`Trajectory.sample`), `rodas_band`
(`canard._within_middle_band`) and `rodas_sum`, the copy of numpy's
pairwise summation that `rodas_divergence` sums with.  Each gives the bits
of its Python or numpy form, which runs where the library is None.  A run's
five node arrays cross as one C-contiguous (5, n) float64 block, at one
address (see `dynamics.Trajectory`), and points and samples as (2, m)
blocks.

`load` compiles `_rodas.c` with the C compiler `cc` into the package's
`__pycache__`, as `_rodas-<digest>.so`, where the digest is a CRC-32 of the
source and the build command, and loads it with ctypes.  A later import
finds the file and only loads it: it starts no compiler and imports neither
`subprocess` nor `hashlib`.  The library is written to a temporary name and
moved into place with `os.replace`, so processes that build at once never
load a partial file.  A successful build deletes the other `_rodas-*.so`
files of the cache, which an older source or build command left there and
no import would load again.  Where the build or the load fails, `load`
returns None, and `dynamics` and `canard` run the Python and numpy forms,
with the same results.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import zlib

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_rodas.c")
# no -ffast-math, and no fused multiply-add: the Python loop's roundings
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_double_p = ctypes.POINTER(ctypes.c_double)
_long_p = ctypes.POINTER(ctypes.c_long)


def load(cache_dir: str = os.path.join(_HERE, "__pycache__"), compiler: tuple[str, ...] = ("cc",)):
    """The kernel library, built into `cache_dir` by `compiler` if it is not
    there yet, or None where it cannot be built or loaded."""
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    command = [*compiler, *_FLAGS]
    digest = zlib.crc32(source + "\0".join(command).encode())
    path = os.path.join(cache_dir, f"_rodas-{digest:08x}.so")
    if not os.path.exists(path) and not _build(command, path):
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    lib.rodas_run.argtypes = (_double_p, _double_p, _long_p, ctypes.c_void_p, ctypes.c_long,
                              _double_p, ctypes.c_long)
    lib.rodas_run.restype = ctypes.c_int
    # the passes over a run read numpy arrays, passed by address: a run's
    # nodes as one (5, n) block, points and samples as (2, m) blocks
    ptr, long, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.rodas_crossing.argtypes = (ptr, long, long, double, double, double, _double_p)
    lib.rodas_crossing.restype = ctypes.c_int
    lib.rodas_sum.argtypes = (ptr, long)
    lib.rodas_sum.restype = double
    lib.rodas_divergence.argtypes = (ptr, long, double, double, double, double, _double_p)
    lib.rodas_divergence.restype = double
    lib.rodas_sample.argtypes = (ptr, long, ptr, long, ptr)
    lib.rodas_sample.restype = None
    lib.rodas_band.argtypes = (ptr, long, double, ptr, long, double, ptr)
    lib.rodas_band.restype = None
    return lib


def _build(command, path) -> bool:
    import glob  # the cold path only
    import subprocess

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        subprocess.run([*command, "-o", tmp, _SOURCE, "-lm"], check=True, capture_output=True,
                       timeout=120)
        os.replace(tmp, path)
        # no import loads a library of an older source or command again;
        # glob reads an unreadable directory as empty
        pattern = os.path.join(glob.escape(os.path.dirname(path)), "_rodas-*.so")
        for stale in set(glob.glob(pattern)) - {path}:
            with contextlib.suppress(OSError):
                os.remove(stale)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)
