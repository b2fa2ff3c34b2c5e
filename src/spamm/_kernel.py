"""Build and load the compiled kernels of _kernel.c, shared by core and numeric.

The library is compiled when this module is imported, with the C compiler
`cc`, into a per-user cache (~/.cache/spamm) under a name keyed by the
source and the flags, and loaded with ctypes.  Its flags keep float32
arithmetic exact: no FMA contraction, and no -ffast-math, whose start-up
code would flush subnormals for the whole process.  They name no ISA: the
wide slab bodies carry their own target attributes and the finish's and the
conversions' loops their per-ISA target_clones, so one build runs on any CPU
of the machine type.  -pthread links the threads the gated kernel
starts and joins within each call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE = Path.home() / ".cache" / "spamm"
_CC = "cc"
_CFLAGS = ("-O3", "-ffp-contract=off", "-pthread", "-fPIC", "-shared")


def _load_kernel() -> ctypes.CDLL:
    """Build _kernel.c into the cache unless this source and these flags
    are built already, then load it and declare its functions."""
    cmd = [_CC, *_CFLAGS]
    tag = hashlib.sha256(
        _SOURCE.read_bytes() + " ".join([*cmd, platform.machine()]).encode()
    ).hexdigest()[:16]
    path = _CACHE / f"_kernel-{tag}.so"
    if not path.exists():
        try:
            _CACHE.mkdir(mode=0o700, parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE)
            os.close(fd)
            try:
                subprocess.run([*cmd, "-o", tmp, str(_SOURCE)],
                               check=True, capture_output=True, text=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = exc.stderr.strip() if isinstance(exc, subprocess.CalledProcessError) else exc
            raise RuntimeError(
                f"spamm needs a C compiler to build its numeric kernel: "
                f"`{' '.join(cmd)}` into {_CACHE} failed: {detail}"
            ) from None
    lib = ctypes.CDLL(str(path))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    f64 = ctypes.c_double
    lib.spamm_stream_gated.argtypes = ([i64, i64] + [ptr] * 8 + [f64, ptr, i64, i64]
                                       + [f64, f64, ptr, ptr, i64, ptr, ptr])
    lib.spamm_stream_gated.restype = None
    lib.spamm_slab_tiles.argtypes = [i64]
    lib.spamm_slab_tiles.restype = ctypes.c_int
    lib.spamm_subnorm_squares.argtypes = [i64] * 4 + [ptr] * 2
    lib.spamm_subnorm_squares.restype = None
    lib.spamm_leaves_to_rows.argtypes = [i64] * 3 + [ptr] * 3
    lib.spamm_leaves_to_rows.restype = None
    lib.spamm_leaves_symmetric.argtypes = [i64, i64] + [ptr] * 3
    lib.spamm_leaves_symmetric.restype = ctypes.c_int
    return lib


_lib = _load_kernel()


def _pointer(arr: np.ndarray, dtype, shape: tuple, name: str) -> int:
    """Address of arr once it is what the kernel reads: C-contiguous, of
    this dtype and exactly this shape."""
    if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous:
        raise ValueError(
            f"{name} must be a C-contiguous {np.dtype(dtype).name} array of shape "
            f"{shape}, got {arr.dtype.name} {arr.shape}"
            + ("" if arr.flags.c_contiguous else ", not C-contiguous")
        )
    return arr.ctypes.data
