"""Build and load the native phase-2 kernel.

The kernel (``engine.c``) is plain C with no Python.h dependency; it is
built and loaded by :class:`repro.nativelib.CKernel`, which compiles it
on demand with the system C compiler into a digest-keyed cache and
binds it through ctypes.  That keeps the native backend usable on any
box with *a* C compiler, no Cython and no build-time Python headers,
while still degrading gracefully (``native_available()`` is False, and
``engine="auto"`` falls back to the scalar engine) when even that is
missing.

``REPRO_NATIVE_LIB`` names an explicit prebuilt library (what the
``python setup.py build_native`` artifact or a CI cache provides);
``REPRO_NATIVE_DISABLE=1`` forces unavailability.  See
:mod:`repro.nativelib` for the cache and the resolution order.

Loaded libraries are checked twice before use: an ABI version handshake
(so a stale cached build from an older source layout is rebuilt rather
than trusted) and a signed-shift probe (the page math needs arithmetic
``>>`` on int64, which C leaves implementation-defined but every
mainstream compiler provides).
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

from repro.nativelib import CKernel, find_compiler as _find_compiler

_ABI_VERSION = 1
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "engine.c")


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64 = ctypes.c_int64
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_i8 = ctypes.POINTER(ctypes.c_int8)
    lib.engine_abi_version.restype = i64
    lib.engine_abi_version.argtypes = []
    lib.engine_shift_probe.restype = ctypes.c_int
    lib.engine_shift_probe.argtypes = []
    lib.engine_new.restype = ctypes.c_void_p
    lib.engine_new.argtypes = [i64, i64, p_i64, p_i64, p_i64, i64]
    lib.engine_free.restype = None
    lib.engine_free.argtypes = [ctypes.c_void_p]
    lib.engine_feed.restype = ctypes.c_int
    lib.engine_feed.argtypes = [ctypes.c_void_p, i64, p_i8, p_i64, p_i64,
                                p_i64]
    lib.engine_flush.restype = ctypes.c_int
    lib.engine_flush.argtypes = [ctypes.c_void_p]
    lib.engine_read_sessions.restype = None
    lib.engine_read_sessions.argtypes = [ctypes.c_void_p, p_i64, p_i64,
                                         p_i64, p_i64]
    lib.engine_read_pages.restype = None
    lib.engine_read_pages.argtypes = [ctypes.c_void_p, i64, p_i64, p_i64,
                                      p_i64]
    lib.engine_total_writes.restype = i64
    lib.engine_total_writes.argtypes = [ctypes.c_void_p]
    lib.engine_overlap_anomalies.restype = i64
    lib.engine_overlap_anomalies.argtypes = [ctypes.c_void_p]
    return lib


def _verify(lib: ctypes.CDLL) -> Optional[str]:
    if not lib.engine_shift_probe():
        return (
            "built by a compiler without arithmetic right shift on signed "
            "int64; the page math would be wrong"
        )
    return None


_KERNEL = CKernel(
    "engine", _SOURCE, _ABI_VERSION, _declare,
    lib_env="REPRO_NATIVE_LIB", verify=_verify,
)


def build_native_library(out_path: Optional[str] = None) -> str:
    """Compile ``engine.c`` into a shared object and return its path
    (see :meth:`repro.nativelib.CKernel.build`)."""
    return _KERNEL.build(out_path)


def load_native_library(refresh: bool = False) -> Optional[ctypes.CDLL]:
    """The loaded kernel, or ``None`` when unavailable (memoized).

    ``refresh=True`` re-runs the probe — tests use it after flipping
    ``REPRO_NATIVE_DISABLE`` / ``REPRO_NATIVE_LIB``.
    """
    return _KERNEL.load(refresh)


def native_available(refresh: bool = False) -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return load_native_library(refresh=refresh) is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the last load attempt failed (None when loaded or untried)."""
    return _KERNEL.error


__all__ = [
    "build_native_library",
    "load_native_library",
    "native_available",
    "native_unavailable_reason",
]
