"""Build and load the native phase-1 tracing interpreter (``machine.c``).

The kernel is its own shared object, built lazily by
:class:`repro.nativelib.CKernel` the first time phase 1 runs, so
processes that only replay cached traces never compile it.
``REPRO_NATIVE_DISABLE=1`` makes it unavailable, in which case phase 1
runs on the Python :class:`~repro.machine.cpu.Cpu`.

Besides the ABI version handshake, a loaded build must report the
opcode values of :mod:`repro.machine.isa` and shift signed int64 right
arithmetically (Python's ``>>``).
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

from repro.machine import isa
from repro.nativelib import CKernel

_ABI_VERSION = 1
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "machine.c")

#: Opcodes in the order ``machine_opcodes()`` reports them.
_OPCODE_ORDER = (
    "LDI", "MOV", "LEAF", "ADD", "SUB", "MUL", "DIV", "MOD", "FADD", "FSUB",
    "FMUL", "FDIV", "AND", "OR", "XOR", "SHL", "SHR", "NEG", "FNEG", "NOT",
    "BNOT", "I2F", "F2I", "EQ", "NE", "LT", "LE", "GT", "GE", "LD", "ST",
    "JMP", "BF", "BT", "CALL", "CALLB", "RET", "CHK", "TRAP", "NOP", "HALT",
)


def _declare(lib: ctypes.CDLL) -> None:
    i64 = ctypes.c_int64
    vp = ctypes.c_void_p
    lib.machine_opcodes.restype = i64
    lib.machine_opcodes.argtypes = [vp, i64]
    lib.machine_shift_probe.restype = ctypes.c_int
    lib.machine_shift_probe.argtypes = []
    lib.machine_new.restype = vp
    lib.machine_new.argtypes = [i64, i64, i64]
    lib.machine_free.restype = None
    lib.machine_free.argtypes = [vp]
    lib.machine_load.restype = ctypes.c_int
    lib.machine_load.argtypes = [vp, vp, i64, vp, i64, i64, vp, vp, vp,
                                 vp, vp, vp, vp, vp, i64, i64, vp, vp]
    lib.machine_start.restype = i64
    lib.machine_start.argtypes = [vp, i64, vp, vp, i64, i64, i64]
    lib.machine_run.restype = i64
    lib.machine_run.argtypes = [vp]
    lib.machine_host_return.restype = None
    lib.machine_host_return.argtypes = [vp, i64, i64]
    lib.machine_emit.restype = ctypes.c_int
    lib.machine_emit.argtypes = [vp, i64, i64, i64, i64]
    lib.machine_take.restype = None
    lib.machine_take.argtypes = [vp, vp, vp, vp, vp]
    lib.machine_release_columns.restype = None
    lib.machine_release_columns.argtypes = [vp, vp]
    lib.machine_free_buffer.restype = None
    lib.machine_free_buffer.argtypes = [vp]
    lib.machine_call_stack.restype = i64
    lib.machine_call_stack.argtypes = [vp, vp, i64]


def _verify(lib: ctypes.CDLL) -> Optional[str]:
    table = (ctypes.c_int64 * len(_OPCODE_ORDER))()
    count = lib.machine_opcodes(table, len(_OPCODE_ORDER))
    expected = [getattr(isa, name) for name in _OPCODE_ORDER]
    if count != len(expected) or list(table) != expected:
        return "opcode table does not match repro.machine.isa; rebuild it"
    if not lib.machine_shift_probe():
        return "built by a compiler without arithmetic right shift on int64"
    return None


_KERNEL = CKernel(
    "machine", _SOURCE, _ABI_VERSION, _declare, verify=_verify,
    # No FMA contraction: every float operation rounds on its own, as
    # Python's do.
    extra_flags=("-ffp-contract=off",), libraries=("-lm",),
)


def build_machine_library(out_path: Optional[str] = None) -> str:
    """Compile ``machine.c`` and return the shared object's path."""
    return _KERNEL.build(out_path)


def load_machine_library(refresh: bool = False) -> Optional[ctypes.CDLL]:
    """The loaded interpreter, or ``None`` when unavailable (memoized)."""
    return _KERNEL.load(refresh)


def machine_unavailable_reason() -> Optional[str]:
    """Why the last load attempt failed (None when loaded or untried)."""
    return _KERNEL.error


__all__ = [
    "build_machine_library",
    "load_machine_library",
    "machine_unavailable_reason",
]
