"""Importing the package pins glibc's mmap threshold, so a freed large
array does not move later arrays of its size onto the brk heap, where
their pages stay resident after they are freed."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biathlon_bayes

_SRC = Path(__file__).resolve().parents[1] / "src"

# Prints whether an 8 MiB array allocated after a freed 16 MiB one is
# mapped (glibc's mallinfo2 counts mapped bytes in hblkhd).
_PROBE = """
import ctypes, sys
import numpy as np
if sys.argv[1] == "import":
    import biathlon_bayes
class Info(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Info
a = np.ones(2 << 20)
del a
before = libc.mallinfo2().hblkhd
b = np.ones(1 << 20)
print(libc.mallinfo2().hblkhd - before >= b.nbytes)
"""


def _mapped(how: str) -> bool:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _PROBE, how], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr[-2000:]
    return run.stdout.strip() == "True"


def test_freed_array_does_not_move_later_arrays_to_the_heap():
    if not sys.platform.startswith("linux") or not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")
    assert not _mapped("numpy-only")  # glibc's sliding threshold, which the import stops
    assert _mapped("import")


@pytest.mark.parametrize("missing", ["libc", "mallopt"])
def test_no_mallopt_is_a_no_op(missing, monkeypatch):
    def cdll(name):
        if missing == "libc":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    biathlon_bayes._pin_mmap_threshold()
