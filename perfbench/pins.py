"""BLAS and OpenMP thread pins, shared by the benchmark and its children.

Importing this module loads no numerical library, so callers can pin the
thread counts before numpy first loads its BLAS.
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(env) -> None:
    """Set every thread-count variable in `env` (a mapping) to 1."""
    for name in THREAD_VARS:
        env[name] = "1"
