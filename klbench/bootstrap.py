"""Process set-up shared by the benchmark's entry points.

``prepare()`` must run before numpy is imported: it pins every BLAS and
OpenMP pool to one thread, so a run uses one core and leaves the other free,
and it puts this checkout's ``src`` first on ``sys.path``, so the benchmark
measures the program built from the sources next to it and nothing
installed elsewhere.

It also fixes glibc malloc's mmap threshold at its default, 128 KiB. glibc
otherwise raises the threshold on the fly from what the process freed
before, and then serves large temporaries from a heap that no longer
page-faults. With the dynamic threshold, the same ``bmd`` solve to target on
``dense-poisson`` took 185 000 minor page faults (0.35 s of system time, 40%
more wall time) in one process and under 300 in the next, depending on the
order of the solves before it and on the address-space layout. With the
threshold fixed, every m x n temporary is mapped afresh, so each solve pays
the same fault cost in every process, and a change that drops such
temporaries is credited with the faults it saves as well as the compute.
"""
from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_M_MMAP_THRESHOLD = -3  # mallopt parameter
MALLOC_MMAP_THRESHOLD = 128 << 10


def prepare() -> bool:
    """Pin thread pools and malloc, and make ``import klnmf`` load this checkout.

    Returns whether the malloc mmap threshold could be fixed. Exits with status 2
    when the checkout has no ``src/klnmf``.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if not (SRC / "klnmf" / "__init__.py").is_file():
        print(f"klbench: no program sources at {SRC / 'klnmf'}; run from a "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return _fix_malloc()


def _fix_malloc() -> bool:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD))

