"""Build and load the compiled event loop `_eventloop.c` of `dynamics.SimState`.

The C source is compiled on first use with the system C compiler at
`-O2 -ffp-contract=off` (strict IEEE: no fused multiply-add, no fast-math, no
host-specific code), and the shared library is cached in this package's
`__pycache__/` under a name keyed by the sha256 of the source and the flags.
A build goes to a temporary name and is moved into place with `os.replace`,
so concurrent worker processes may build at the same time.  When
`__pycache__/` is not writable the library goes to a private temporary
directory.  `load_kernel` returns None when the source or a compiler is
missing or the build fails; `SimState` then runs its Python loop, which
gives the same stream.  `find_compiler` and `_build`, which run only when
the kernel must be compiled, import `shutil` and `subprocess` themselves, so
a process that loads the cached library never imports `subprocess`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_eventloop.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_POINTERS = ("gap", "sel", "acc", "ex_pair", "ex_entry", "ex_cum", "col_pair",
             "col_entry", "col_cum", "bd_slot", "bd_birth", "bd_death", "eta",
             "kind_counts", "open", "where")


class LoopState(ctypes.Structure):
    """The C `loop_state`: array pointers (the candidate batch, the
    `RateTable` pair arrays, the configuration, the event counts and the
    `SimState` open collision list with each pair's place in it), the
    candidate count, the exclusion and boundary pair counts, the slots and
    collision pairs per site and the number of open pairs, the largest
    direction totals, the static weights `RateTable.weights[0]` and
    `weights[2]` and N^2, then the clock, next candidate, consecutive
    rejections and pending entry.  `weights[1]` stays the static collision
    bound; the loop's collision rate is bound_col x n_open."""

    _fields_ = ([(name, ctypes.c_void_p) for name in _POINTERS]
                + [(name, ctypes.c_int64) for name in
                   ("n_cand", "n_ex", "n_bd", "nv", "groups", "n_open")]
                + [(name, ctypes.c_double) for name in
                   ("bound_ex", "bound_col", "bound_bd", "w_ex", "w_bd", "time_scale", "t")]
                + [(name, ctypes.c_int64) for name in ("pos", "tried", "idx")])


_kernel = None  # None: not tried yet; False: unavailable


def find_compiler():
    """Path of the system C compiler, or None."""
    import shutil

    return shutil.which("gcc") or shutil.which("cc")


def load_kernel():
    """The compiled `run_events(LoopState *, double stop)`, or None."""
    global _kernel
    if _kernel is None:
        _kernel = _load() or False
    return _kernel or None


def _load():
    try:
        with open(SOURCE, "rb") as fh:
            key = hashlib.sha256(fh.read() + " ".join(FLAGS).encode()).hexdigest()[:16]
    except OSError:  # installed without its package data
        return None
    name = f"_eventloop-{key}.so"
    path = os.path.join(CACHE_DIR, name)
    if not os.path.exists(path):
        compiler = find_compiler()
        if compiler is None:
            return None
        try:
            path = _build(compiler, CACHE_DIR, name)
        except OSError:
            path = _build(compiler, tempfile.mkdtemp(prefix="latgas-"), name)
        if path is None:
            return None
    return _bind(path)


def _bind(path: str):
    """`run_events` of the shared library at path, typed; None if it does
    not load."""
    try:
        fn = ctypes.CDLL(path).run_events
    except OSError:
        return None
    fn.argtypes = [ctypes.POINTER(LoopState), ctypes.c_double]
    fn.restype = ctypes.c_int64
    return fn


def _build(compiler: str, directory: str, name: str):
    """Compile into directory/name; None if the compiler fails."""
    import subprocess

    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".eventloop-", suffix=".so")
    os.close(fd)
    try:
        built = subprocess.run([compiler, *FLAGS, "-o", tmp, SOURCE],
                               capture_output=True).returncode == 0
    except OSError:
        built = False
    if not built:
        os.unlink(tmp)
        return None
    path = os.path.join(directory, name)
    os.replace(tmp, path)
    return path
