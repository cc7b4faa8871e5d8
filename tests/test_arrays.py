"""The row-blocked channel mix and the wide broadcast add return what the
plain numpy expressions return, bit for bit, and the set and wreath kernels
built on them still compute the closed-form set map."""

import os
import signal
import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

import wreathlin.arrays as arrays
from wreathlin.arrays import BLOCK_MADDS, WIDE_ROW, broadcast_add, channel_mix, scratch, split_rows
from wreathlin.basis import pattern_of_structure
from wreathlin.layer import apply, apply_dense, random_layer
from wreathlin.structure import parse_structure

from memory import traced_peak


def block_rows(c_in, c_out):
    return BLOCK_MADDS // (c_in * c_out)


@pytest.mark.parametrize("shape, c_out", [
    ((2 * block_rows(8, 8) + 7, 8), 8),  # n % block != 0
    ((3 * block_rows(3, 5), 3), 5),  # whole blocks only
    ((block_rows(16, 16) + 1, 16), 16),  # a lone row joins a block: numpy multiplies one row by gemv
    ((3 * block_rows(8, 8) + 1, 8), 8),
    ((100, 8), 8),  # n within one block
    ((block_rows(8, 8), 8), 8),  # n exactly one block
    ((3, block_rows(8, 8) + 5, 8), 8),  # batch axes
    ((2, 2, 2000, 16), 16),
])
def test_channel_mix_equals_matmul(shape, c_out):
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=shape), rng.normal(size=(shape[-1], c_out))
    y = channel_mix(x, w)
    assert y.shape == shape[:-1] + (c_out,)
    assert np.array_equal(y, x @ w)
    out = np.full_like(y, np.nan)
    assert channel_mix(x, w, out=out) is out and np.array_equal(out, y)


def test_channel_mix_of_a_weight_beyond_one_block_a_row_is_the_plain_product():
    rng = np.random.default_rng(1)
    x, w = rng.normal(size=(5, 1024)), rng.normal(size=(1024, 513))
    assert w.size > BLOCK_MADDS
    assert np.array_equal(channel_mix(x, w), x @ w)


def test_channel_mix_reads_strided_views():
    rng = np.random.default_rng(2)
    n = 2 * block_rows(8, 8) + 3
    xr = rng.normal(size=(n, 3, 8))
    w = rng.normal(size=(8, 8))
    swapped = xr.swapaxes(-2, -3)  # the (Q, P, c) view a product node passes its first factor
    assert not swapped.flags.c_contiguous
    assert np.array_equal(channel_mix(swapped, w), swapped @ w)
    latent_major = rng.normal(size=(4, n))  # the (n, L) transpose the attention layer multiplies
    mixed = rng.normal(size=(4, 16))
    assert np.array_equal(channel_mix(latent_major.T, mixed), latent_major.T @ mixed)
    assert np.array_equal(channel_mix(xr[::2, 1], w), xr[::2, 1] @ w)


@pytest.mark.parametrize("n", [100, 2 * block_rows(8, 8) + 7])
def test_channel_mix_returns_a_fresh_array(n):
    rng = np.random.default_rng(3)
    x, w = rng.normal(size=(n, 8)), rng.normal(size=(8, 8))
    x_before = x.copy()
    y = channel_mix(x, w)
    assert not np.shares_memory(y, x) and not np.shares_memory(y, w)
    y[...] = 7.0
    assert np.array_equal(x, x_before)


def plain_add(y, rows):
    out = y.copy()
    out += rows
    return out


@pytest.mark.parametrize("y_shape, rows_shape", [
    ((20000, 8), (1, 8)),  # k = WIDE_ROW // c = 16 divides n
    ((20010, 8), (1, 8)),  # 16 does not: k = 15
    ((20011, 8), (1, 8)),  # a prime n: the plain add
    ((6000, 5), (1, 5)),  # k = 25
    ((20000, 16), (1, 16)),  # k = 8
    ((384, 256, 8), (384, 1, 8)),  # the wreath fold's fiber add
    ((100, 1000, 8), (100, 1, 8)),  # k = 10 under a batch axis
    ((3, 1000, 8), (1, 8)),  # one row added under batch axes, as a bias
    ((2, 3, 700, 8), (2, 3, 1, 8)),  # k = 14
    ((2, 3, 700, 16), (2, 3, 1, 16)),  # 8 does not divide 700: the plain add
    ((100, 8), (1, 8)),  # within WIDE_ROW ** 2 elements: the plain add
    ((5000, 2, 8), (5000, 1, 8)),  # too few rows a row of rows: the plain add
    ((300, 100), (1, 100)),  # more than WIDE_ROW / 2 channels
])
def test_broadcast_add_equals_plain_add(y_shape, rows_shape):
    rng = np.random.default_rng(4)
    y, rows = rng.normal(size=y_shape), rng.normal(size=rows_shape)
    expected = plain_add(y, rows)
    added, peak = traced_peak(broadcast_add, y, rows)
    assert added is y
    assert np.array_equal(y, expected)
    # the tiled rows and numpy's 64 KiB iteration buffer at most, never a copy of
    # y: numpy adds into a strided part of an array through a copy of that part
    assert peak <= y.nbytes / 16 + 2 ** 17


def test_broadcast_add_writes_through_a_non_contiguous_array():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(64, 3000, 8))
    y = base.swapaxes(0, 1)  # (3000, 64, 8), its last two axes not one block of memory
    rows = rng.normal(size=(3000, 1, 8))
    assert y.size > WIDE_ROW ** 2 and not y.flags.c_contiguous
    expected = plain_add(y, rows)
    assert broadcast_add(y, rows) is y
    assert np.array_equal(y, expected)
    assert np.array_equal(base.swapaxes(0, 1), expected)


def set_formula(x, w0, w1):
    """``x @ (w0 - w1) + 1 (1^T x @ w1)``, the set layer written out."""
    return x @ (w0 - w1) + x.sum(axis=0) @ w1


def nested_set_formula(x, q, w0, w1, w2):
    """The same for sets of ``q``-point sets: ``w1`` within a set, ``w2`` across."""
    fibers = x.reshape(-1, q, x.shape[1])
    y = fibers @ (w0 - w1) + fibers.sum(axis=1, keepdims=True) @ (w1 - w2) + x.sum(axis=0) @ w2
    return y.reshape(x.shape[0], -1)


def test_apply_on_a_large_set_follows_the_set_formula():
    rng = np.random.default_rng(6)
    layer = random_layer(parse_structure("S(20000)"), c_in=8, c_out=8, rng=rng)
    x = rng.normal(size=(20000, 8))
    expected = set_formula(x, *layer.weights)
    assert np.abs(apply(layer, x) - expected).max() <= 1e-12 * np.abs(expected).max()


def test_apply_on_sets_of_large_sets_follows_the_nested_set_formula():
    rng = np.random.default_rng(7)
    # canonical orbit order is that of first row-major appearance: the
    # diagonal, then the rest of the first set, then the other sets
    small = random_layer(parse_structure("wr(S(3),S(2))"), c_in=2, c_out=2, rng=rng)
    assert pattern_of_structure(small.structure).orbit_id[0, [0, 1, 3]].tolist() == [0, 1, 2]
    x_small = rng.normal(size=(6, 2))
    assert np.allclose(nested_set_formula(x_small, 3, *small.weights), apply_dense(small, x_small),
                       rtol=0, atol=1e-12)
    layer = random_layer(parse_structure("wr(S(64),S(384))"), c_in=8, c_out=8, rng=rng)
    x = rng.normal(size=(64 * 384, 8))
    expected = nested_set_formula(x, 64, *layer.weights)
    assert np.abs(apply(layer, x) - expected).max() <= 1e-12 * np.abs(expected).max()


def test_scratch_hands_out_only_idle_buffers_and_keeps_at_most_its_cap(monkeypatch):
    monkeypatch.setattr(arrays, "_POOL", OrderedDict())
    monkeypatch.setattr(arrays, "POOL_BYTES", 4 * 2 ** 17)
    assert arrays.POOL_MIN_BYTES == 2 ** 17
    small = scratch(2 ** 14 - 1)  # under POOL_MIN_BYTES: np.empty, not kept
    assert small.dtype == np.float64 and not arrays._POOL
    a, b = scratch((2 ** 14, 1)), scratch((2 ** 14, 1))
    assert not np.shares_memory(a, b) and len(arrays._POOL[(2 ** 14, 1), np.dtype(np.float64)]) == 2
    address = b.ctypes.data
    del b
    assert scratch((2 ** 14, 1)).ctypes.data == address
    del a
    for i in range(1, 5):  # each 8 * i bytes over 2**17: the cap holds three
        scratch(2 ** 14 + i)
    assert [shape for shape, _ in arrays._POOL] == [(2 ** 14 + 2,), (2 ** 14 + 3,), (2 ** 14 + 4,)]
    scratch(2 ** 14 + 2)  # a hit makes its shape the most recent
    scratch(2 ** 14 + 5)
    assert [shape for shape, _ in arrays._POOL] == [(2 ** 14 + 4,), (2 ** 14 + 2,), (2 ** 14 + 5,)]
    arrays._POOL.clear()
    scratch(2 ** 14)
    scratch(2 ** 15)  # larger than all that is kept: lets every shape go, though both fit the cap
    assert [shape for shape, _ in arrays._POOL] == [(2 ** 15,)]
    ids = scratch(arrays.POOL_BYTES // 8 + 1, np.int64)  # too large to keep: lets every shape go
    assert ids.dtype == np.int64 and not arrays._POOL


def test_scratch_never_hands_one_buffer_to_two_threads(monkeypatch):
    """Each thread fills the buffer it holds and finds it unchanged after
    switching threads every microsecond; a check-then-hand-out without the
    pool's lock would give two threads one idle buffer."""
    monkeypatch.setattr(arrays, "_POOL", OrderedDict())
    errors = []

    def work(tag):
        for _ in range(300):
            buf = scratch(2 ** 14)
            buf.fill(tag)
            time.sleep(0)
            if not (buf == tag).all():
                errors.append(tag)
            del buf  # idle, for any thread to take next

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(tag,)) for tag in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def ranges_of(n, step, cpus, monkeypatch):
    """The ``(start, stop, thread)`` of each call ``split_rows(n, ..., step)``
    makes with ``cpus`` CPUs to run on, in row order."""
    monkeypatch.setattr(arrays.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls = []
    split_rows(n, lambda start, stop: calls.append((start, stop, threading.get_ident())), step)
    return sorted(calls)


@pytest.mark.parametrize("n, step, cpus", [
    (100_000, 2048, 2), (100_000, 4096, 3), (70_001, 1, 2), (3 * 2 ** 15, 2 ** 15, 4), (2 ** 15 + 5, 2 ** 15, 2),
])
def test_split_rows_covers_the_rows_in_whole_steps_one_range_per_cpu(n, step, cpus, monkeypatch):
    calls = ranges_of(n, step, cpus, monkeypatch)
    assert len(calls) == min(cpus, n // step)
    assert [start for start, _, _ in calls] == [0] + [stop for _, stop, _ in calls[:-1]] and calls[-1][1] == n
    assert all(start % step == 0 and stop - start >= step for start, stop, _ in calls)
    # the first range runs in the caller, each other one on a helper thread
    assert [thread == threading.get_ident() for _, _, thread in calls] == [True] + [False] * (len(calls) - 1)


@pytest.mark.parametrize("n, step, cpus", [
    (arrays.SPLIT_MIN_ROWS - 1, 1, 2),  # below the crossover
    (100_000, 60_000, 2),  # one whole step
    (100_000, 0, 2),  # no step: one call
    (100_000, 1, 1),  # one CPU
])
def test_split_rows_makes_one_call_in_the_caller_where_it_does_not_split(n, step, cpus, monkeypatch):
    assert ranges_of(n, step, cpus, monkeypatch) == [(0, n, threading.get_ident())]


def test_split_rows_runs_a_range_whose_thread_cannot_start_in_the_caller(monkeypatch):
    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(arrays, "_HELPERS", [])
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    calls = ranges_of(100_000, 1, 3, monkeypatch)
    assert len(calls) == 3 and {thread for _, _, thread in calls} == {threading.get_ident()}
    assert not arrays._HELPERS


def test_split_rows_within_a_range_runs_serially(monkeypatch):
    """One split at a time: a split called from within a range, as from
    another thread while one runs, makes one call in its own thread."""
    monkeypatch.setattr(arrays.os, "sched_getaffinity", lambda pid: {0, 1})
    calls = []

    def outer(start, stop):
        here = threading.get_ident()
        split_rows(stop - start, lambda a, b: calls.append((start, a, b, threading.get_ident() == here)))

    split_rows(100_000, outer)
    assert sorted(calls) == [(0, 0, 50_000, True), (50_000, 0, 50_000, True)]


def test_split_rows_raises_a_range_error_once_every_range_is_done(monkeypatch):
    monkeypatch.setattr(arrays.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    done = []

    def fn(start, stop):
        if start:
            raise ValueError(start)
        time.sleep(0.05)
        done.append(start)

    with pytest.raises(ValueError):
        split_rows(100_000, fn)
    assert done == [0]
    assert len(ranges_of(100_000, 1, 3, monkeypatch)) == 3  # and the helpers serve the next split


def test_split_rows_in_a_forked_child_starts_its_own_helpers(monkeypatch):
    monkeypatch.setattr(arrays.os, "sched_getaffinity", lambda pid: {0, 1})
    x, y = np.arange(100_000.0), np.empty(100_000)
    split_rows(len(x), lambda start, stop: np.negative(x[start:stop], out=y[start:stop]))
    assert arrays._HELPERS
    pid = os.fork()
    if pid == 0:  # the child: a helper of its parent would never answer, so give up after 20 s
        signal.alarm(20)
        y[:] = 0
        split_rows(len(x), lambda start, stop: np.negative(x[start:stop], out=y[start:stop]))
        os._exit(0 if np.array_equal(y, -x) else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def test_split_rows_lets_go_of_the_arrays_its_threads_read(monkeypatch):
    """The scratch pool hands out a buffer once nothing else references it,
    so no helper thread may still hold the caller's arrays when it returns."""
    monkeypatch.setattr(arrays.os, "sched_getaffinity", lambda pid: {0, 1})
    x, y = np.arange(100_000.0), np.empty(100_000)
    before = sys.getrefcount(x), sys.getrefcount(y)
    split_rows(len(x), lambda start, stop: np.negative(x[start:stop], out=y[start:stop]))
    assert (sys.getrefcount(x), sys.getrefcount(y)) == before
    assert np.array_equal(y, -x)


def test_split_rows_raises_if_a_helper_thread_has_stopped(monkeypatch):
    """A range handed to a thread that no longer runs raises, not waits."""
    monkeypatch.setattr(arrays.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(arrays, "_HELPERS", [])
    monkeypatch.setattr(arrays._Helper, "_serve", lambda helper: None)
    with pytest.raises(RuntimeError, match="stopped"):
        split_rows(100_000, lambda start, stop: None)
    assert not arrays._HELPERS
