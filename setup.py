"""Setup shim for legacy editable installs (offline environments without
the ``wheel`` package). Configuration lives in pyproject.toml.

Adds one repo-specific command::

    python setup.py build_native

which compiles the phase-2 C kernel (``repro.simulate._native``) and
the phase-1 tracing interpreter (``repro.machine._native``) into the
user cache eagerly, so the first run doesn't pay the compiles.  The
command is best-effort by design: a box without a C toolchain prints the
reason and exits zero, because the kernels are optional accelerators —
``auto`` falls back to numpy/python and phase 1 to the Python CPU.
"""

import sys

from setuptools import Command, setup


class BuildNative(Command):
    """Compile the native simulation kernel into the build cache."""

    description = "compile the C kernels (optional accelerators)"
    user_options = []

    def initialize_options(self):
        pass

    def finalize_options(self):
        pass

    def run(self):
        sys.path.insert(0, "src")
        from repro.simulate._native import (
            build_native_library,
            native_available,
            native_unavailable_reason,
        )

        from repro.machine._native import (
            build_machine_library,
            load_machine_library,
            machine_unavailable_reason,
        )

        kernels = (
            ("engine", build_native_library, native_available,
             native_unavailable_reason),
            ("machine", build_machine_library, load_machine_library,
             machine_unavailable_reason),
        )
        for name, build, load, reason in kernels:
            try:
                path = build()
            except Exception as exc:
                print(f"build_native: {name} kernel not built ({exc}); "
                      f"the pure-Python path will be used")
                continue
            if load(refresh=True):
                print(f"build_native: {name} kernel ready at {path}")
            else:
                print(f"build_native: built {path} but the loader rejects "
                      f"it: {reason()}")


setup(cmdclass={"build_native": BuildNative})
