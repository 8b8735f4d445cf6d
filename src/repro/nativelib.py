"""Compile-once loader for the package's in-tree C kernels.

Each kernel ships as one C source file next to the Python module that
drives it.  :func:`load` compiles it on demand with whatever C compiler
the host already has (``cc``/``gcc``/``clang`` — no build-time
dependency) into a content-addressed shared object under a small
on-disk cache (``REPRO_NATIVE_CACHE_DIR``, else a per-user temp dir),
and loads it through :mod:`ctypes`.

The object's name hashes the source *and* the compiler command, so a
changed flag (``-ffp-contract=off``, say) builds a new object instead of
silently reusing one compiled under the old flags.  Builds are atomic
(compile to a temp file, then ``os.replace``), so concurrent processes
racing on a cold cache are safe.

Callers memoize the result — or the :class:`BuildError` reason — once
per process, so a host without a toolchain probes for it once and then
quietly runs the Python reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

from .env import env_dir

__all__ = ["BuildError", "load"]

#: Flags every kernel is built with (position-independent shared
#: object); a kernel adds its own optimisation and FP-semantics flags.
BASE_FLAGS = ("-shared", "-fPIC")


class BuildError(RuntimeError):
    """A kernel cannot be built or loaded; the message says why."""


def _find_compiler():
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir():
    """Where compiled kernels live."""
    explicit = env_dir("REPRO_NATIVE_CACHE_DIR")
    if explicit:
        return explicit
    uid = os.getuid() if hasattr(os, "getuid") else "na"
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _build(cc, flags, source_path, so_path):
    directory = os.path.dirname(so_path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
        os.close(fd)
    except OSError as exc:
        raise BuildError(f"compile failed: {exc}") from exc
    try:
        proc = subprocess.run([cc, *flags, "-o", tmp, source_path],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            os.replace(tmp, so_path)  # atomic under concurrent builders
            return
    except (OSError, subprocess.SubprocessError) as exc:
        raise BuildError(f"compile failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    tail = (proc.stderr or "").strip().splitlines()
    raise BuildError("compile failed: " + (
        tail[-1] if tail else f"exit {proc.returncode}"))


def load(source_path, stem, flags, signatures):
    """Compile (once, content-addressed) and load one kernel.

    *flags* are the kernel's own compiler flags (added to
    :data:`BASE_FLAGS`); *signatures* maps each exported function name
    to ``(restype, argtypes)``.  Returns the configured
    :class:`ctypes.CDLL`; raises :class:`BuildError` with a one-line
    reason when there is no compiler, the source does not compile, or
    the object does not load.
    """
    try:
        with open(source_path, "rb") as fh:
            src = fh.read()
    except OSError as exc:
        raise BuildError(f"kernel source unreadable: {exc}") from exc
    cc = _find_compiler()
    if cc is None:
        raise BuildError("no C compiler (cc/gcc/clang) on PATH")
    command = (*BASE_FLAGS, *flags)
    tag = hashlib.sha256(src + "\0".join(
        (os.path.basename(cc),) + command).encode()).hexdigest()[:16]
    so_path = os.path.join(_cache_dir(), f"{stem}_{tag}.so")
    if not os.path.exists(so_path):
        _build(cc, command, source_path, so_path)
    try:
        lib = ctypes.CDLL(so_path)
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except (OSError, AttributeError) as exc:
        raise BuildError(f"kernel load failed: {exc}") from exc
    return lib
