"""The compiled step loop of `dynamics.integrate`, built at the first import.

`load` compiles `_rodas.c` with the C compiler `cc` into the package's
`__pycache__`, as `_rodas-<digest>.so`, where the digest is a CRC-32 of the
source and the build command, and loads it with ctypes.  A later import
finds the file and only loads it: it starts no compiler and imports neither
`subprocess` nor `hashlib`.  The library is written to a temporary name and
moved into place with `os.replace`, so processes that build at once never
load a partial file.  Where the build or the load fails, `load` returns
None, and `dynamics` runs its Python loop, with the same results.
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
    lib.rodas_crossing.argtypes = (*[ctypes.c_double] * 13, _double_p)
    lib.rodas_crossing.restype = ctypes.c_int
    return lib


def _build(command, path) -> bool:
    import subprocess  # the cold path only

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        subprocess.run([*command, "-o", tmp, _SOURCE, "-lm"], check=True, capture_output=True,
                       timeout=120)
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)
