"""Two array kernels for tall ``(..., n, c)`` arrays with few channels, a
pool of large scratch arrays that callers reuse across calls, and a split of
row passes across the process's CPUs.

The set and wreath kernels of ``layer`` and the point-cloud layers spend
their time on two numpy/BLAS operations whose cost is not their arithmetic:

* A tall, skinny product ``x @ w`` falls off a cliff once one BLAS call
  holds more than about ``2**19`` multiply-adds.  With OpenBLAS 0.3.31
  (Haswell kernels, one thread), ``(n, 8) @ (8, 8)`` took 0.054 ms at
  ``n = 10,000`` and 0.32 ms at ``n = 20,000``.  :func:`channel_mix` runs the
  product as row blocks of at most ``BLOCK_MADDS // (c_in * c_out)`` rows
  through numpy's batched ``matmul``, one BLAS call per block: 0.13 ms at
  ``n = 20,000`` and 0.60–0.70 ms against 1.5–1.7 ms at ``n = 100,000``.
* Adding a short row to every row, ``y += row``, loops ``c`` elements at a
  time: ``(100000, 8) += (8,)`` took 0.9–1.3 ms, against 0.59 ms for a copy
  of the same 6.4 MB.  :func:`broadcast_add` adds through a view whose rows
  hold 8 to ``WIDE_ROW // c`` rows of ``y``, and the row tiled to match:
  0.6 ms.  The view spans all of ``y``: numpy added into a strided part of an
  array, such as all but the last rows of each ``(n, c)`` slab, through a
  copy of that part.

Both take the plain expression where it is already fast: a product of at most
one block, an add into an array of at most ``WIDE_ROW ** 2`` elements, or
one whose row count has no wide factor.  An add is elementwise, so
:func:`broadcast_add` is exact.  Blocking keeps the strides of every row, so
:func:`channel_mix` equals ``x @ w`` bit for bit wherever BLAS sums a row the
same way in a short call as in a long one.  With the OpenBLAS above that held
for ``c_in <= 8`` and for ``c_out`` a multiple of 8; some shapes with
``c_in >= 12`` and a small ``c_out``, such as ``(n, 16) @ (16, 4)``, differed
by up to 6.5e-16 relative.

:func:`scratch` hands out uninitialized arrays from a pool keyed by shape and
dtype.  glibc maps a request of ``2**17`` bytes or more (its default mmap
threshold) fresh from the kernel, or trims and re-grows the heap for it, so a
step that frees and re-requests such arrays faults in new pages on every
call: 937 minor faults per warm ``segnet_train`` step and 1,649 per warm
100,000-point ``segnet_infer`` forward, against 0 with the pool.  The pool
serves only those sizes, keeps up to one byte budget of them, and lets them
all go when a new array is larger than all it keeps together, as the first
of a pass over a larger cloud is.  It hands a buffer out again only while
the pool holds the sole reference to it (``sys.getrefcount``).  An array a
caller still holds, or any view of one, is therefore never overwritten: what
:func:`scratch` returns shares memory with nothing live.

:func:`split_rows` runs a pass over rows as one contiguous range per CPU
the process may run on, the first in the calling thread and the others on
kept helper threads, splitting only at multiples of the caller's own block or
chunk, so each range makes the calls the serial pass makes and the bits do not
change.  Below ``SPLIT_MIN_ROWS`` rows, on one CPU, or where no thread can
start, the pass runs serially.  BLAS stays one thread inside each range: a
process that lets BLAS run threads of its own oversubscribes the cores.

:func:`freeze_field` gives a frozen dataclass a read-only copy of an array
it was handed, so no view its caller kept can write into it, and freezes in
place an array the dataclass built itself.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections import OrderedDict

import numpy as np

# Multiply-adds per BLAS call.  OpenBLAS's tall, skinny products were fast up
# to 2**19 and two to three times slower per row from about 2**20 on.
BLOCK_MADDS = 2 ** 19
# Elements per row of broadcast_add's wide view, at most; its set-up (the
# tiled rows) pays off above WIDE_ROW ** 2 elements.
WIDE_ROW = 128
# scratch pools arrays of POOL_MIN_BYTES or more.  Smaller ones come from the
# heap's free lists, not fresh pages.
POOL_MIN_BYTES = 2 ** 17
# Bytes the pool keeps, busy or idle, at most.  A warm segnet_train step
# (4,000 points, widths 6, 16 and 8) keeps 4,928,000, and a warm segnet_infer
# forward (100,000 points) 34,531,296, which this holds with a third to spare.
POOL_BYTES = 48 * 2 ** 20

# Rows from which split_rows runs its ranges on several threads.  Handing an
# empty range to a waiting helper and waiting for it took about 17 us
# (starting and joining a new thread, about 85 us).  The segnet_infer forward
# on blob clouds at D = 16, one BLAS thread, 2 CPUs, best of three runs,
# serial / split in ms: 8,000 points 2.15 / 2.55, 16,000 3.46 / 3.51 (3.49 /
# 3.93 in another run), 24,000 5.08 / 4.47, 32,000 6.63 / 5.72, 48,000
# 9.89 / 7.40, 64,000 13.33 / 9.58.  Every segnet_train array (4,000 points)
# stays serial.
SPLIT_MIN_ROWS = 20_000

# (shape, dtype) -> the arrays kept of it, least recently asked for first
_POOL: OrderedDict[tuple, list[np.ndarray]] = OrderedDict()
_POOL_LOCK = threading.Lock()


def scratch(shape: int | tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialized array that shares memory with no live array.

    An array of at least ``POOL_MIN_BYTES`` comes from the pool: a kept
    buffer of the same shape and dtype that nothing outside the pool
    references, or else a new one.  The pool keeps a new array, letting the
    least recently asked-for shapes go until it holds at most
    ``POOL_BYTES``.  A new array larger than all the pool keeps together
    lets every shape go, so a pass over a larger cloud keeps no buffer of a
    smaller one; one larger than ``POOL_BYTES`` does so and is not kept.
    An array under ``POOL_MIN_BYTES`` is ``np.empty``.  A name still bound
    to an array its caller is done with keeps that array busy, so a loop
    should not name what it asks for on each pass.

    >>> a = scratch((128, 128))  # 128 KiB: pooled
    >>> view = a[1:]
    >>> del a
    >>> b = scratch((128, 128))
    >>> np.shares_memory(b, view)  # the view holds its buffer
    False
    >>> address = b.ctypes.data
    >>> del b
    >>> scratch((128, 128)).ctypes.data == address  # idle again, so reused
    True
    >>> _POOL.clear()
    >>> small = scratch((128, 128))
    >>> large = scratch((256, 128))  # larger than all that is kept
    >>> [shape for shape, _ in _POOL]  # lets the smaller shape go
    [(256, 128)]
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize * math.prod(shape)
    if nbytes < POOL_MIN_BYTES:
        return np.empty(shape, dtype)
    key = (shape, dtype)
    with _POOL_LOCK:
        kept = _POOL.get(key, [])
        for i in range(len(kept)):
            if sys.getrefcount(kept[i]) == 2:  # the list's reference and the argument's
                _POOL.move_to_end(key)
                return kept[i]
        held = sum(buf.nbytes for bufs in _POOL.values() for buf in bufs)
        if nbytes > held:  # larger than all that is kept, as the first array of a larger cloud's pass
            _POOL.clear()
        while _POOL and held + nbytes > POOL_BYTES:
            held -= sum(buf.nbytes for buf in _POOL.popitem(last=False)[1])
        buf = np.empty(shape, dtype)
        if nbytes <= POOL_BYTES:
            _POOL.setdefault(key, []).append(buf)
            _POOL.move_to_end(key)
        return buf


def channel_mix(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ w`` for ``(..., n, c_in)`` by ``(c_in, c_out)``, into ``out``
    if given (a C-contiguous array of the product's shape), else a new array.

    Runs in row blocks of ``BLOCK_MADDS // (c_in * c_out)`` rows, plus a
    tail of at least two rows; ``n`` within one block, or a ``w`` too large
    for one row a block, takes ``np.matmul(x, w)`` itself.  ``x`` may be
    any strided view.

    >>> x, w = np.arange(40000.0).reshape(-1, 8) % 7, np.eye(8)[::-1]
    >>> y = channel_mix(x, w)
    >>> y.shape, np.array_equal(y, x @ w)
    ((5000, 8), True)
    """
    block = BLOCK_MADDS // w.size
    if x.shape[-2] <= block or not block:
        return np.matmul(x, w, out=out)
    *batch, n, c_in = x.shape
    head = n - n % block
    if n - head == 1:  # numpy multiplies a lone row by gemv, which may round apart from gemm
        head -= block
    y = np.empty((*batch, n, w.shape[1])) if out is None else out
    # splitting the row axis into (blocks, rows) is a view for any strides
    np.matmul(x[..., :head, :].reshape(*batch, -1, block, c_in), w,
              out=y[..., :head, :].reshape(*batch, -1, block, w.shape[1]))
    np.matmul(x[..., head:, :], w, out=y[..., head:, :])
    return y


def _wide_factor(n: int, c: int) -> int:
    """Rows of ``c`` per row of the wide view of ``n`` rows, or 0: the
    largest divisor ``k`` of ``n`` from 8 to ``WIDE_ROW // c``, and at most
    ``n // 16``, so the tiled rows are at most a sixteenth of the array.
    Fewer than 8 rows a row gained little (2-10% at ``c = 16``, ``k = 4``)."""
    return next((k for k in range(min(WIDE_ROW // c, n // 16), 7, -1) if n % k == 0), 0)


def broadcast_add(y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``y += rows`` for ``(..., n, c)`` ``y`` and ``(..., 1, c)`` ``rows``; returns ``y``.

    A C-contiguous ``y`` of more than ``WIDE_ROW ** 2`` elements whose ``n``
    has a wide factor ``k`` is added through its ``(..., n // k, k * c)``
    view, with ``rows`` tiled ``k`` times.  Any other ``y`` takes the plain
    ``+=``.

    >>> y = np.zeros((3, 1024, 8))
    >>> rows = np.arange(24.0).reshape(3, 1, 8)
    >>> broadcast_add(y, rows) is y, np.array_equal(y, np.zeros((3, 1024, 8)) + rows)
    (True, True)
    """
    if y.size > WIDE_ROW * WIDE_ROW and y.flags.c_contiguous:
        *batch, n, c = y.shape
        k = _wide_factor(n, c)
        if k:
            # the view is all of y: numpy adds into a strided part of it through a copy of the whole part
            wide = y.reshape(*batch, n // k, k * c)
            wide += np.repeat(rows, k, axis=-2).reshape(*rows.shape[:-2], 1, k * c)
            return y
    y += rows
    return y


def freeze_field(obj, name: str, value, dtype=np.float64, copy: bool = True) -> None:
    """Set field ``name`` of the frozen dataclass ``obj`` to a read-only,
    C-contiguous copy of ``value`` as ``dtype``, which no view of ``value`` reaches.
    With ``copy=False``, for an array that ``obj`` built itself and shares
    with no one, ``value`` itself is frozen wherever it has that dtype and
    layout already."""
    arr = (np.array if copy else np.asarray)(value, dtype=dtype, order="C")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


class _Helper:
    """A daemon thread that runs one range of :func:`split_rows` at a time."""

    def __init__(self) -> None:
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = self._error = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            fn, start, stop = self._job
            self._job = None
            try:
                fn(start, stop)
            except BaseException as error:
                self._error = error
            del fn  # lets go of the caller's arrays before the caller resumes
            self._done.release()

    def start(self, fn, start: int, stop: int) -> None:
        self._job = (fn, start, stop)
        self._go.release()

    def join(self) -> BaseException | None:
        """Wait for the range to end; return what it raised, if anything."""
        while not self._done.acquire(timeout=1):
            if not self._thread.is_alive():  # the range will never end
                raise RuntimeError("a split_rows helper thread has stopped")
        error, self._error = self._error, None
        return error


# the helpers split_rows has started, and the lock of the one split that uses them
_HELPERS: list[_Helper] = []
_HELPERS_LOCK = threading.Lock()


def _forget_helpers() -> None:
    """A forked child has none of its parent's helper threads."""
    global _HELPERS_LOCK
    _HELPERS.clear()
    _HELPERS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


def split_rows(n: int, fn, step: int = 1) -> None:
    """Call ``fn(start, stop)`` on contiguous ranges that together cover rows
    ``0 .. n``, one range per CPU the process may run on
    (``os.sched_getaffinity``), the first in the calling thread and each
    other on a helper thread; return once every range is done.

    Each range holds at least one whole ``step``, the caller's own block or
    chunk of rows, and every range but the last starts and stops at a
    multiple of it, so a range makes exactly the calls that the serial pass
    makes on those rows and writes exactly their bits.  ``fn`` must write
    only its own rows.  The call is one ``fn(0, n)`` below ``SPLIT_MIN_ROWS``
    rows, with fewer than two whole steps (or ``step < 1``), on one CPU, or
    while another split runs (from another thread, or from within a range).
    The helpers are daemon threads, started on first need and kept, each
    waiting for its next range; a range for which no thread can start runs
    in the calling thread.  Each helper lets go of ``fn``, and so of what it
    reads, before its range counts as done, so an array the caller drops
    afterwards is idle for :func:`scratch` at once.  An exception raised in
    any range is raised here once every range has ended.

    >>> out = np.empty(40000)
    >>> def square(start, stop):
    ...     np.square(np.arange(start, stop, dtype=float), out=out[start:stop])
    >>> split_rows(len(out), square, step=4096)
    >>> np.array_equal(out, np.arange(40000.0) ** 2)
    True
    """
    steps = n // step if step > 0 else 1
    parts = min(len(os.sched_getaffinity(0)), steps) if n >= SPLIT_MIN_ROWS and steps > 1 else 1
    if parts < 2 or not _HELPERS_LOCK.acquire(blocking=False):
        fn(0, n)
        return
    try:
        while len(_HELPERS) < parts - 1:
            try:
                _HELPERS.append(_Helper())
            except RuntimeError:  # no thread to be had: the ranges without a helper run here
                break
        bounds = [step * (steps * i // parts) for i in range(parts)] + [n]
        ranges = list(zip(bounds[:-1], bounds[1:]))
        helpers = _HELPERS[:parts - 1]
        for helper, (start, stop) in zip(helpers, ranges[1:]):
            helper.start(fn, start, stop)
        try:
            for start, stop in ranges[:1] + ranges[1 + len(helpers):]:
                fn(start, stop)
        finally:
            try:
                errors = [helper.join() for helper in helpers]
            except BaseException:  # interrupted: a helper may still be running, so none is used again
                _HELPERS.clear()
                raise
        error = next((error for error in errors if error is not None), None)
        if error is not None:
            raise error
    finally:
        _HELPERS_LOCK.release()
