"""The traced peak memory, the traced memory left behind and the page
faults of one call, in this process or a fresh one, and fresh command-line
processes under an address-space limit, for the allocation tests."""

import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and the peak bytes that
    ``tracemalloc`` traced while it ran.  Tracing stops even if it raises."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_left(fn, *args):
    """The bytes that ``tracemalloc`` still traces once ``fn(*args)`` has
    returned and its result is dropped: what the call left behind."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def minor_faults(fn, *args):
    """``(fn(*args), faults)``: the call's result and the minor page faults
    (``ru_minflt``) this process took while it ran, each a page mapped in."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = fn(*args)
    return result, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


FAULTS_PER_CALL = """
import statistics
from memory import minor_faults
{setup}
for _ in range({warm}):
    op()
print(statistics.median(minor_faults(op)[1] for _ in range({runs})))
"""


def fresh_process_faults(setup, warm=5, runs=21):
    """The median minor faults of ``runs`` calls of ``op()`` after ``warm``
    untimed ones, in a fresh Python process that first runs the source
    ``setup``, which defines ``op``.  The process imports ``wreathlin`` from
    ``src`` and these test modules, runs one BLAS thread, and has no
    ``MALLOC_*`` or ``GLIBC_TUNABLES`` settings, which move glibc's mmap and
    trim thresholds."""
    script = FAULTS_PER_CALL.format(setup=setup, warm=warm, runs=runs)
    out = fresh_process(script)
    out.check_returncode()
    return float(out.stdout)


def fresh_process(script, *argv, preexec_fn=None):
    """The finished fresh Python process that runs the source ``script`` with
    the arguments ``argv``, in the environment of :func:`fresh_process_faults`;
    ``preexec_fn`` runs in the child before it starts."""
    return subprocess.run([sys.executable, "-c", script, *argv], env=_fresh_env(), capture_output=True, text=True,
                          preexec_fn=preexec_fn)


def _fresh_env():
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


CONSOLE_SCRIPT = "from wreathlin.cli import run; run()"


def under_address_limit(argv, limit, script=CONSOLE_SCRIPT):
    """The finished fresh Python process that runs the source ``script``,
    by default what the ``wreathlin`` console script runs, with the
    arguments ``argv``, its soft ``RLIMIT_AS`` set to ``limit`` bytes before
    it starts, in the environment of :func:`fresh_process_faults`."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    return fresh_process(script, *argv, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))
