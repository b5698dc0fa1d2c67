"""Build and load the package's C kernels through ctypes.

Two kernels use this: the phase-2 simulation engine
(:mod:`repro.simulate._native`) and the phase-1 tracing interpreter
(:mod:`repro.machine._native`).  Each is plain C with no Python.h
dependency, so the "build system" is one compiler invocation::

    cc -O3 -shared -fPIC <name>.c -o <cache>/<name>-<source sha256>.so

and the "bindings" are ctypes.

Resolution order for a kernel's shared object:

1. An explicit prebuilt library path, for kernels that name an
   environment variable for it (``REPRO_NATIVE_LIB`` for the engine).
2. A cached build keyed by the source digest (``REPRO_NATIVE_CACHE`` or
   ``~/.cache/repro-native``): recompiled only when the source changes,
   published atomically so concurrent workers never observe a
   half-written library.
3. An on-demand compile with ``$CC``/``cc``/``gcc``/``clang``.

``REPRO_NATIVE_DISABLE=1`` makes every kernel unavailable, which is how
the CI no-toolchain job and the fallback tests prove the pure-Python
paths without uninstalling the compiler.

A loaded library is checked before use: an ABI version handshake (a
stale cached build from an older source layout is rebuilt rather than
trusted) plus the kernel's own ``verify`` probe.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Callable, Optional, Sequence


def cache_dir() -> str:
    """Where digest-named kernel builds are cached."""
    explicit = os.environ.get("REPRO_NATIVE_CACHE")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-native")


def find_compiler() -> Optional[str]:
    """The first C compiler on PATH among ``$CC``, cc, gcc and clang."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


class CKernel:
    """One C source file, its cached build, and its loaded library.

    ``declare(lib)`` sets the ctypes signatures; ``verify(lib)`` returns
    an error string when the build is unusable (None when it is fine).
    The library must export ``<name>_abi_version()`` returning
    ``abi_version``.
    """

    def __init__(
        self,
        name: str,
        source: str,
        abi_version: int,
        declare: Callable[[ctypes.CDLL], None],
        *,
        lib_env: Optional[str] = None,
        verify: Optional[Callable[[ctypes.CDLL], Optional[str]]] = None,
        extra_flags: Sequence[str] = (),
        libraries: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.source = source
        self.abi_version = abi_version
        self.lib_env = lib_env
        self._declare = declare
        self._verify = verify
        self._flags = tuple(extra_flags)
        self._libraries = tuple(libraries)
        self._lock = threading.Lock()
        self._lib: Optional[ctypes.CDLL] = None
        self._probed = False
        #: Why the last load attempt failed (None when loaded or untried).
        self.error: Optional[str] = None

    def _digest(self) -> str:
        digest = hashlib.sha256()
        with open(self.source, "rb") as handle:
            digest.update(handle.read())
        if self._flags or self._libraries:
            digest.update(" ".join(self._flags + self._libraries).encode())
        return digest.hexdigest()[:16]

    def build(self, out_path: Optional[str] = None) -> str:
        """Compile the source into a shared object and return its path.

        With ``out_path`` the library lands exactly there; otherwise it
        is published atomically into the cache directory under a
        source-digest name, so repeat calls are free and concurrent
        builders race benignly (last rename wins, both files are
        identical).

        Raises ``RuntimeError`` when no C compiler is on PATH or the
        compile fails; callers that want graceful degradation go through
        :meth:`load` instead.
        """
        compiler = find_compiler()
        if compiler is None:
            hint = f" or provide a prebuilt library via {self.lib_env}" if self.lib_env else ""
            raise RuntimeError(
                f"no C compiler found (tried $CC, cc, gcc, clang); set CC{hint}"
            )
        if out_path is None:
            cache = cache_dir()
            os.makedirs(cache, exist_ok=True)
            final = os.path.join(cache, f"{self.name}-{self._digest()}.so")
            if os.path.exists(final):
                return final
        else:
            os.makedirs(os.path.dirname(os.path.abspath(out_path)) or ".",
                        exist_ok=True)
            final = out_path

        fd, tmp = tempfile.mkstemp(
            suffix=".so", dir=os.path.dirname(os.path.abspath(final))
        )
        os.close(fd)
        try:
            cmd = [
                compiler, "-O3", "-shared", "-fPIC", "-fvisibility=hidden",
                *self._flags, self.source, "-o", tmp, *self._libraries,
            ]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"native {self.name} compile failed ({' '.join(cmd)}):\n"
                    f"{proc.stderr.strip()}"
                )
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return final

    def _try_load(self) -> Optional[ctypes.CDLL]:
        if os.environ.get("REPRO_NATIVE_DISABLE"):
            self.error = "disabled via REPRO_NATIVE_DISABLE"
            return None
        path = os.environ.get(self.lib_env) if self.lib_env else None
        if not path:
            try:
                path = self.build()
            except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
                self.error = str(exc)
                return None
        try:
            lib = ctypes.CDLL(path)
            version = getattr(lib, f"{self.name}_abi_version")
            version.restype = ctypes.c_int64
            version.argtypes = []
            self._declare(lib)
        except (OSError, AttributeError) as exc:
            self.error = f"could not load {path}: {exc}"
            return None
        if version() != self.abi_version:
            self.error = (
                f"{path} has ABI version {version()}, "
                f"expected {self.abi_version}; rebuild it"
            )
            return None
        problem = self._verify(lib) if self._verify else None
        if problem:
            self.error = f"{path}: {problem}"
            return None
        self.error = None
        return lib

    def load(self, refresh: bool = False) -> Optional[ctypes.CDLL]:
        """The loaded library, or ``None`` when unavailable (memoized).

        ``refresh=True`` re-runs the probe: tests use it after flipping
        ``REPRO_NATIVE_DISABLE`` or the library variable.
        """
        with self._lock:
            if refresh or not self._probed:
                self._lib = self._try_load()
                self._probed = True
            return self._lib
