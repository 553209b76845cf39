"""`worker_pool`: OpenBLAS keeps to one thread while a pool is open, its
thread count comes back when the last pool closes, and no kernel's bytes
depend on which count was in force."""

import threading

import numpy as np
import pytest

from lungmix import parallel, pipeline
from lungmix.parallel import worker_pool
from lungmix.pipeline import PipelineConfig, Waveform, featurize, mel_head, mel_spectrogram

BLAS = parallel._openblas()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy does not bundle OpenBLAS")


def blas_threads() -> int:
    return BLAS[0]()


@pytest.fixture
def three_blas_threads():
    """OpenBLAS at 3 threads, a count neither 1 nor a common default."""
    before = blas_threads()
    BLAS[1](3)
    yield
    BLAS[1](before)


@needs_openblas
def test_one_blas_thread_inside_and_restored_after(three_blas_threads):
    with worker_pool(2) as pool:
        assert blas_threads() == 1
        assert pool.submit(blas_threads).result() == 1
    assert blas_threads() == 3


@needs_openblas
def test_restored_after_an_exception(three_blas_threads):
    with pytest.raises(ZeroDivisionError):
        with worker_pool(2) as pool:
            pool.submit(lambda: 1 / 0).result()
    assert blas_threads() == 3


@needs_openblas
def test_restored_only_when_the_outer_of_nested_pools_closes(three_blas_threads):
    with worker_pool(2) as outer:
        with worker_pool(1) as inner:
            assert inner.submit(blas_threads).result() == 1
        assert blas_threads() == 1
        assert outer.submit(blas_threads).result() == 1
    assert blas_threads() == 3


def test_concurrent_pools_restore_once_the_last_closes(monkeypatch):
    """Two threads' pools overlap; a stand-in BLAS records every count set."""
    state = {"threads": 4, "history": []}

    def set_threads(n):
        state["threads"] = n
        state["history"].append(n)

    monkeypatch.setattr(parallel, "_openblas", lambda: (lambda: state["threads"], set_threads))
    first_open, second_done = threading.Event(), threading.Event()

    def first():
        with worker_pool(1):
            first_open.set()
            second_done.wait(timeout=10)
            state["after_second"] = state["threads"]

    thread = threading.Thread(target=first)
    thread.start()
    first_open.wait(timeout=10)
    with worker_pool(1):
        pass
    second_done.set()
    thread.join()
    assert state == {"threads": 4, "history": [1, 4], "after_second": 1}


def test_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    before = None if BLAS is None else blas_threads()
    with worker_pool(2) as pool:
        assert list(pool.map(abs, [-1, -2, 3])) == [1, 2, 3]
        assert (None if BLAS is None else blas_threads()) == before


def kernel_bytes(mel_bins: int) -> list[bytes]:
    """float64 bytes of `mel_spectrogram`, of `mel_head` stitches where the head
    and where the tail is at the SPLIT_MIN_ELEMENTS floor, and of `featurize`."""
    cfg = PipelineConfig(mel_bins=mel_bins)
    clip = Waveform(np.random.default_rng(mel_bins).standard_normal(144000) * 0.1, 16000)
    n = (len(clip) - 400) // 160 + 1
    floor = -(-pipeline.SPLIT_MIN_ELEMENTS // mel_bins)
    out = [mel_spectrogram(clip, cfg).bins.tobytes()]
    for k in (floor, n - floor):
        record = Waveform(clip.samples[: 160 * (k - 1) + 400], 16000)
        head = mel_head(record, cfg)
        padded, spec = featurize(record, cfg, np.random.default_rng(k), head)
        whole = featurize(record, cfg, np.random.default_rng(k))[1]
        out += [mel_spectrogram(padded, cfg, head).bins.tobytes(), spec.bins.tobytes(),
                whole.bins.tobytes()]
    return out


@pytest.mark.parametrize("mel_bins", [128, 64, 32])
def test_kernel_bytes_same_inside_and_outside_a_pool(mel_bins):
    outside = kernel_bytes(mel_bins)
    with worker_pool(2) as pool:
        on_worker = pool.submit(kernel_bytes, mel_bins).result()
        on_caller = kernel_bytes(mel_bins)
    assert on_worker == outside
    assert on_caller == outside
