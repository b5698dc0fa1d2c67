"""The native phase-1 tier: :class:`NativeCpu` runs on ``machine.c``.

:class:`NativeCpu` is the stand-in for :class:`~repro.machine.cpu.Cpu`
that phase 1 uses when the compiled interpreter is available.  It
offers the part of the Cpu surface the runtime, the tracer and the
workloads use (``memory``, ``builtins``, ``cycles``/``instructions``/
``stores``, ``frames``, ``attach``, ``run``), while the instruction loop,
the frame install/remove events and the WRITE events run in C.

What stays in Python, and why the results are bit-identical:

* heap and ``print_*`` builtins stop the kernel and run the existing
  :class:`~repro.minic.runtime.Runtime` code, so heap statistics, program
  output and the tracer's heap contexts (built from :attr:`frames`) come
  from the same code as on the Python tier;
* the tracer's begin installs, heap events and closing removes are
  appended through :meth:`emit` into the same columns, in order;
* whenever int64/double arithmetic could differ from Python's (see
  ``machine.c``), or a value has no tagged image, :class:`NativeAbandoned`
  is raised and the caller re-runs the program on the Python Cpu.

Only plain phase-1 tracing is eligible: :func:`phase1_eligible` is the
single predicate that decides it.
"""

from __future__ import annotations

import ctypes
import struct
from collections import namedtuple
from typing import List, Optional, Tuple

import numpy as np

from repro import observe
from repro.errors import (
    AlignmentFault,
    CpuLimitExceeded,
    InvalidInstruction,
    MachineError,
    MemoryFault,
    MiniCRuntimeError,
    StackOverflow,
)
from repro.machine import isa
from repro.machine._native import load_machine_library
from repro.machine.cpu import CpuState
from repro.machine.layout import MemoryLayout
from repro.machine.memory import Memory
from repro.machine.monitor_registers import MonitorRegisterFile
from repro.machine.paging import PageTable
from repro.observe import profile as observe_profile
from repro.units import WORD_SHIFT

# Value tags, machine statuses and builtin kinds of machine.c.
T_INT, T_FLT, T_NONE = 0, 1, 2
_DONE, _HOST, _FLUSH, _ABANDON = 0, 1, 2, 3
_ALIGN, _LOAD_RANGE, _STORE_RANGE, _STACK, _LIMIT = 4, 5, 6, 7, 8
_INT_DIV0, _FLOAT_DIV0 = 9, 10
_BUILTIN_KINDS = {"sqrt": 1, "exp": 2, "log": 3, "fabs": 4}
_ABANDON_REASONS = {
    1: "int64 overflow", 2: "shift count outside 0..62",
    3: "operand type Python would reject", 4: "int beyond 2^53 mixed with a float",
    5: "F2I of a value with no int64 image", 6: "unencodable, CHK or TRAP instruction",
    7: "math builtin domain error or non-finite result", 8: "builtin call shape",
    9: "out of memory", 10: "call depth",
}
_MAX_HOST_ARGS = 8
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")

_COST = np.zeros(max(isa.CYCLE_COST) + 1, dtype=np.int64)
for _op, _cost in isa.CYCLE_COST.items():
    _COST[_op] = _cost

_THREE_REG = frozenset({
    isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.FADD, isa.FSUB,
    isa.FMUL, isa.FDIV, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
    isa.EQ, isa.NE, isa.LT, isa.LE, isa.GT, isa.GE,
})
_TWO_REG = frozenset({
    isa.MOV, isa.NEG, isa.FNEG, isa.NOT, isa.BNOT, isa.I2F, isa.F2I,
})


class NativeAbandoned(Exception):
    """The native tier cannot reproduce this run exactly; re-run it on
    the Python :class:`~repro.machine.cpu.Cpu`."""


#: One live frame as the tracer's heap-context code sees it.
NativeFrame = namedtuple("NativeFrame", "func")


def phase1_eligible(cpu) -> bool:
    """True when ``cpu`` is configured for plain phase-1 tracing only.

    That means no enabled monitor registers, no write-protected pages,
    no code-patch check hook, no debugger enter/exit hooks, and the
    opcode profiler off: the native tier implements none of them.
    """
    return (
        not cpu.monitor_registers.any_enabled
        and not cpu.page_table.write_protected
        and cpu.check_hook is None
        and not cpu.enter_hooks
        and not cpu.exit_hooks
        and not observe_profile.cpu_sample_stride()
    )


def _tagged(value) -> Tuple[int, int]:
    """``(payload, tag)`` of a register or cell value."""
    kind = type(value)
    if kind is int and _I64_MIN <= value <= _I64_MAX:
        return value, T_INT
    if kind is float:
        return _INT64.unpack(_DOUBLE.pack(value))[0], T_FLT
    if value is None:
        return 0, T_NONE
    raise NativeAbandoned(f"value {value!r} has no native representation")


def _value(payload: int, tag: int):
    """The Python value of a tagged payload."""
    if tag == T_INT:
        return payload
    if tag == T_FLT:
        return _DOUBLE.unpack(_INT64.pack(payload))[0]
    return None


class _Public(ctypes.Structure):
    """Mirror of ``MachinePublic`` in machine.c (same field order)."""

    _fields_ = [
        (name, ctypes.c_int64) for name in (
            "instructions", "cycles", "stores", "events", "n_writes",
            "n_installs", "n_removes", "host_exits", "max_depth", "depth",
            "status", "detail", "exit_val", "exit_tag", "host_builtin",
            "host_nargs", "host_dest",
        )
    ] + [
        ("host_val", ctypes.c_int64 * _MAX_HOST_ARGS),
        ("host_tag", ctypes.c_int64 * _MAX_HOST_ARGS),
        ("mem", ctypes.c_void_p),
        ("tag", ctypes.c_void_p),
        ("mem_words", ctypes.c_int64),
    ]


class NativeMemory(Memory):
    """:class:`Memory` over the kernel's tagged cells (no Python list).

    Address checks and their errors are :class:`Memory`'s own; values
    are stored with their tag, so ints, floats and None read back as
    they were written.
    """

    def __init__(self, layout: MemoryLayout, payload: np.ndarray,
                 tags: np.ndarray) -> None:
        self.layout = layout
        self.n_words = layout.memory_size >> WORD_SHIFT
        self._ints = payload
        self._floats = payload.view(np.float64)
        self._tags = tags

    def _cell(self, index: int):
        tag = self._tags[index]
        if tag == T_INT:
            return int(self._ints[index])
        if tag == T_FLT:
            return float(self._floats[index])
        return None

    def _set(self, index: int, value) -> None:
        payload, tag = _tagged(value)
        self._ints[index] = payload
        self._tags[index] = tag

    def load_word(self, address: int):
        return self._cell(self._word_index(address))

    def store_word(self, address: int, value) -> None:
        self._set(self._word_index(address), value)

    def load_range(self, address: int, n_words: int) -> list:
        start = self._word_index(address)
        if start + n_words > self.n_words:
            raise MemoryFault(address, "range outside physical memory")
        return [self._cell(i) for i in range(start, start + n_words)]

    def store_range(self, address: int, values) -> None:
        values = list(values)
        start = self._word_index(address)
        stop = start + len(values)
        if stop > self.n_words:
            raise MemoryFault(address, "range outside physical memory")
        kinds = set(map(type, values))
        if kinds <= {int}:
            try:
                self._ints[start:stop] = np.array(values, dtype=np.int64)
            except OverflowError as exc:
                raise NativeAbandoned(str(exc)) from None
            self._tags[start:stop] = T_INT
        elif kinds == {float}:
            self._floats[start:stop] = values
            self._tags[start:stop] = T_FLT
        else:
            for index, value in enumerate(values, start):
                self._set(index, value)

    def clear(self) -> None:
        self._ints[:] = 0
        self._tags[:] = T_INT

    def _release(self) -> None:
        """Drop the views once the machine is freed (no dangling reads)."""
        self._ints = self._floats = self._tags = None


class _CBuffer:
    """Owns one malloc'd column; NumPy arrays over it keep it alive."""

    def __init__(self, free, address: int, n: int, typestr: str) -> None:
        self._free = free
        self._address = address
        self.__array_interface__ = {
            "data": (address, False), "shape": (n,), "typestr": typestr,
            "version": 3,
        }

    def __del__(self) -> None:
        self._free(self._address)


def _encode_instr(instr, n_regs: int, lo: int, hi: int, functions,
                  pool: List[int]) -> Optional[tuple]:
    """One instruction as ``(op, a, b, c, d)`` for machine.c, or None
    when it has no exact encoding (executing it then abandons)."""

    def reg(x) -> bool:
        return type(x) is int and 0 <= x < n_regs

    def imm(x) -> bool:
        return type(x) is int and _I64_MIN <= x <= _I64_MAX

    op = instr[0]
    try:
        if op in _THREE_REG:
            rd, ra, rb = instr[1:4]
            return (op, rd, ra, rb) if reg(rd) and reg(ra) and reg(rb) else None
        if op in _TWO_REG:
            rd, ra = instr[1:3]
            return (op, rd, ra) if reg(rd) and reg(ra) else None
        if op == isa.LDI:
            rd, value = instr[1:3]
            if not reg(rd) or not (imm(value) or type(value) is float):
                return None
            return (op, rd) + _tagged(value)
        if op == isa.LEAF:
            rd, off = instr[1:3]
            return (op, rd, off) if reg(rd) and imm(off) else None
        if op == isa.LD:
            rd, rb, off = instr[1:4]
            return (op, rd, rb, off) if reg(rd) and reg(rb) and imm(off) else None
        if op == isa.ST:
            rb, off, rs = instr[1:4]
            return (op, rb, off, rs) if reg(rb) and imm(off) and reg(rs) else None
        if op == isa.JMP:
            target = instr[1]
            return (op, target) if type(target) is int and lo <= target < hi else None
        if op in (isa.BF, isa.BT):
            rc, target = instr[1:3]
            ok = reg(rc) and type(target) is int and lo <= target < hi
            return (op, rc, target) if ok else None
        if op in (isa.CALL, isa.CALLB):
            index, rd, args = instr[1:4]
            args = tuple(args)
            if type(index) is not int or index < 0:
                return None
            if op == isa.CALL and (index >= len(functions)
                                   or len(args) > functions[index].n_regs):
                return None
            if not (rd is None or reg(rd)) or not all(map(reg, args)):
                return None
            offset = len(pool)
            pool.extend(args)
            return (op, index, -1 if rd is None else rd, offset, len(args))
        if op == isa.RET:
            rs = instr[1]
            return (op, -1 if rs is None else rs) if rs is None or reg(rs) else None
        if op in (isa.NOP, isa.HALT):
            return (op,)
    except (IndexError, TypeError, ValueError, NativeAbandoned):
        pass
    return None  # CHK, TRAP, unknown opcodes and malformed operands


def _encode_image(image) -> Tuple[np.ndarray, np.ndarray]:
    """The flat code image as ``(rows, argument pool)`` arrays."""
    code = image.code
    functions = image.functions
    rows = np.zeros((len(code), 5), dtype=np.int64)
    pool: List[int] = []
    next_pc = 0
    for func in functions:
        lo, hi = func.entry_pc, func.end_pc
        if lo != next_pc or hi <= lo:
            raise NativeAbandoned(f"{func.name}: unexpected code layout")
        if code[hi - 1][0] not in (isa.JMP, isa.RET, isa.HALT):
            raise NativeAbandoned(f"{func.name} can run past its last instruction")
        for pc in range(lo, hi):
            row = _encode_instr(code[pc], func.n_regs, lo, hi, functions, pool)
            if row is not None:
                rows[pc, : len(row)] = row
        next_pc = hi
    if next_pc != len(code):
        raise NativeAbandoned("code outside every function")
    return rows, np.array(pool, dtype=np.int64)


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


class NativeCpu:
    """Plain phase-1 tracing on the compiled interpreter.

    The tracer attached through :attr:`tracer` must append to a sink
    whose events go through :meth:`emit`
    (:class:`repro.trace.phase1.NativeTraceSink`).  With
    :attr:`flush_at` set, :attr:`on_flush` is called whenever the
    buffered events reach it (chunked tracing).
    """

    def __init__(self, layout: MemoryLayout) -> None:
        lib = load_machine_library()
        if lib is None:
            raise NativeAbandoned("native machine kernel unavailable")
        n_words = layout.memory_size >> WORD_SHIFT
        handle = lib.machine_new(n_words, layout.stack_limit, layout.stack_top)
        if not handle:
            raise NativeAbandoned("cannot allocate native machine memory")
        self._lib = lib
        self._handle = handle
        self._pub = _Public.from_address(handle)
        payload = np.ctypeslib.as_array(
            ctypes.cast(self._pub.mem, ctypes.POINTER(ctypes.c_int64)),
            shape=(n_words,),
        )
        tags = np.ctypeslib.as_array(
            ctypes.cast(self._pub.tag, ctypes.POINTER(ctypes.c_uint8)),
            shape=(n_words,),
        )
        self.layout = layout
        self.memory = NativeMemory(layout, payload, tags)
        # The Cpu surface the runtime, the tracer and phase1_eligible use.
        self.page_table = PageTable()
        self.monitor_registers = MonitorRegisterFile()
        self.check_hook = None
        self.tracer = None
        self.builtins: list = []
        self.enter_hooks: dict = {}
        self.exit_hooks: dict = {}
        self.cycles = 0
        self.instructions = 0
        self.stores = 0
        self.flush_at = 0
        self.on_flush = None
        self._loaded = None

    # -- lifetime --------------------------------------------------------

    def close(self) -> None:
        """Free the machine (memory, frames, unreleased columns)."""
        handle, self._handle = self._handle, None
        if handle:
            self.memory._release()
            self._pub = None
            self._lib.machine_free(handle)

    def __del__(self) -> None:
        if getattr(self, "_handle", None):
            self.close()

    # -- Cpu surface -----------------------------------------------------

    def attach(self, loaded_program) -> None:
        """Attach a program image and store its initialized globals."""
        self._loaded = loaded_program
        for address, value in loaded_program.global_init_words:
            self.memory.store_word(address, value)

    @property
    def frames(self) -> List[NativeFrame]:
        """The live frames, outermost first (heap contexts read this)."""
        depth = self._pub.depth
        indices = (ctypes.c_int64 * depth)()
        self._lib.machine_call_stack(self._handle, indices, depth)
        functions = self._loaded.functions
        return [NativeFrame(functions[index]) for index in indices]

    # -- event columns ---------------------------------------------------

    def emit(self, kind: int, a: int, b: int, c: int) -> None:
        """Append one event to the trace columns."""
        if self._lib.machine_emit(self._handle, kind, a, b, c):
            raise NativeAbandoned("out of memory for trace columns")

    @property
    def n_events(self) -> int:
        """Events buffered since the last :meth:`take_columns`."""
        return self._pub.events

    def event_counts(self) -> Tuple[int, int, int]:
        """Run totals ``(writes, installs, removes)``."""
        pub = self._pub
        return pub.n_writes, pub.n_installs, pub.n_removes

    def take_columns(self) -> Tuple[np.ndarray, ...]:
        """Copy the buffered events out (one chunk) and empty the buffer."""
        n = self._pub.events
        columns = (np.empty(n, np.int8), np.empty(n, np.int64),
                   np.empty(n, np.int64), np.empty(n, np.int64))
        self._lib.machine_take(self._handle, *map(_ptr, columns))
        return columns

    def release_columns(self) -> Tuple[np.ndarray, ...]:
        """The buffered events as arrays that take over the kernel's
        buffers (no copy); the machine starts a fresh buffer."""
        n = self._pub.events
        out = (ctypes.c_void_p * 4)()
        self._lib.machine_release_columns(self._handle, out)
        free = self._lib.machine_free_buffer
        return tuple(
            np.asarray(_CBuffer(free, address, n, typestr))
            for address, typestr in zip(out, ("|i1", "<i8", "<i8", "<i8"))
        )

    # -- execution -------------------------------------------------------

    def run(self, entry: str = "main", args=(),
            max_instructions: int = 500_000_000) -> CpuState:
        """Execute the attached program from ``entry`` (see Cpu.run)."""
        if self._loaded is None:
            raise InvalidInstruction("no program attached")
        if self.tracer is None or not phase1_eligible(self):
            raise NativeAbandoned("not plain phase-1 tracing")
        func_index = self._loaded.function_index(entry)
        self._load(func_index, len(args))
        tagged = [_tagged(value) for value in args]
        values = np.array([p for p, _ in tagged], dtype=np.int64)
        tags = np.array([t for _, t in tagged], dtype=np.int64)
        lib, handle = self._lib, self._handle
        status = lib.machine_start(
            handle, func_index, _ptr(values), _ptr(tags), len(args),
            max_instructions, self.flush_at,
        )
        while status != _DONE:
            if status == _HOST:
                self._host_call()
            elif status == _FLUSH:
                self.on_flush()
            else:
                self._sync()
                raise self._stop_error(status, max_instructions)
            status = lib.machine_run(handle)
        self._sync()
        pub = self._pub
        if observe.is_enabled():
            observe.inc("cpu.runs")
            observe.inc("cpu.instructions", pub.instructions)
            observe.inc("cpu.cycles", pub.cycles)
            observe.inc("cpu.stores", pub.stores)
            observe.inc("machine.native.host_exits", pub.host_exits)
            observe.inc("machine.native.fallbacks", 0)
        return CpuState(
            exit_value=_value(pub.exit_val, pub.exit_tag),
            instructions=pub.instructions,
            cycles=pub.cycles,
            stores=pub.stores,
            max_call_depth=pub.max_depth,
            halted=True,
            trap_counts={},
        )

    def _load(self, func_index: int, n_args: int) -> None:
        """Hand the encoded image, frame plans and builtins to C."""
        image = self._loaded
        functions = image.functions
        if n_args > functions[func_index].n_regs:
            raise NativeAbandoned("more entry arguments than registers")
        rows, pool = _encode_image(image)
        entry = np.array([f.entry_pc for f in functions], dtype=np.int64)
        n_regs = np.array([f.n_regs for f in functions], dtype=np.int64)
        frame = np.array([f.frame_size for f in functions], dtype=np.int64)
        plans = self.tracer.frame_plans
        starts = [0]
        flat: List[Tuple[int, int, int]] = []
        for func in functions:
            flat.extend(plans.get(func.index, ()))
            starts.append(len(flat))
        plan = np.array(flat, dtype=np.int64).reshape(-1, 3)
        plan_off, plan_size, plan_obj = (np.ascontiguousarray(plan[:, i])
                                         for i in range(3))
        kinds = np.array(
            [_BUILTIN_KINDS.get(getattr(impl, "native_math", None), 0)
             for impl in self.builtins], dtype=np.int64)
        cycles = np.array([getattr(impl, "native_cycles", 0)
                           for impl in self.builtins], dtype=np.int64)
        starts = np.array(starts, dtype=np.int64)
        failed = self._lib.machine_load(
            self._handle, _ptr(rows), len(rows), _ptr(pool), len(pool),
            len(functions), _ptr(entry), _ptr(n_regs), _ptr(frame),
            _ptr(starts), _ptr(plan_off), _ptr(plan_size), _ptr(plan_obj),
            _ptr(_COST), len(_COST), len(kinds), _ptr(kinds), _ptr(cycles),
        )
        if failed:
            raise NativeAbandoned("cannot allocate the native program image")

    def _host_call(self) -> None:
        """Run one heap/print builtin in Python, as Cpu does for CALLB."""
        pub = self._pub
        impl = self.builtins[pub.host_builtin]
        args = [_value(pub.host_val[i], pub.host_tag[i])
                for i in range(pub.host_nargs)]
        self._sync()
        result = impl(self, args)
        pub.cycles, pub.stores = self.cycles, self.stores
        payload, tag = _tagged(result) if pub.host_dest >= 0 else (0, T_NONE)
        self._lib.machine_host_return(self._handle, payload, tag)

    def _sync(self) -> None:
        pub = self._pub
        self.cycles = pub.cycles
        self.instructions = pub.instructions
        self.stores = pub.stores

    def _stop_error(self, status: int, max_instructions: int) -> Exception:
        """The exception the Python tier raises for a kernel stop."""
        detail = self._pub.detail
        if status == _ALIGN:
            return AlignmentFault(detail)
        if status == _LOAD_RANGE:
            return MemoryFault(detail, "load out of range")
        if status == _STORE_RANGE:
            return MemoryFault(detail, "store out of range")
        if status == _STACK:
            return StackOverflow(self._loaded.functions[detail].name)
        if status == _LIMIT:
            return CpuLimitExceeded(f"exceeded {max_instructions} instructions")
        if status == _INT_DIV0:
            return MiniCRuntimeError("integer division by zero")
        if status == _FLOAT_DIV0:
            return MiniCRuntimeError("float division by zero")
        if status == _ABANDON:
            return NativeAbandoned(_ABANDON_REASONS.get(detail, f"reason {detail}"))
        return MachineError(f"native machine stopped with status {status}")
