"""`worker_pool`: OpenBLAS keeps to one thread while a pool is open, its
thread count comes back when the last pool closes, and no kernel's bytes
depend on which count was in force. `hold_heap`: glibc's thresholds are set
once, only by the entry points, and records then reuse the heap."""

import ctypes
import platform
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from lungmix import parallel, pipeline
from lungmix.parallel import worker_pool
from lungmix.pipeline import PipelineConfig, Waveform, featurize, mel_head, mel_spectrogram
from lungmix.synth import CorpusPlan, make_corpus

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


class StandInLibc:
    """`ctypes.CDLL(None)` with a `mallopt` that records each call."""

    def __init__(self, result: int = 1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


@pytest.fixture
def libc(monkeypatch):
    """Put `lib` in place of libc for `hold_heap`. Its cache is cleared before
    and after, so no call through a stand-in is remembered as applied."""

    def install(lib):
        def cdll(name):
            if isinstance(lib, Exception):
                raise lib
            return lib

        monkeypatch.setattr(parallel.ctypes, "CDLL", cdll)
        return lib

    parallel.hold_heap.cache_clear()
    yield install
    parallel.hold_heap.cache_clear()


def test_hold_heap_sets_both_thresholds_once(libc):
    lib = libc(StandInLibc())
    for _ in range(3):
        parallel.hold_heap()
    assert lib.calls == [
        (parallel.M_MMAP_THRESHOLD, 4 << 20),
        (parallel.M_TRIM_THRESHOLD, 8 << 20),
    ]


@pytest.mark.parametrize("lib", [OSError("no libc"), object()], ids=["cdll-raises", "no-mallopt"])
def test_hold_heap_is_a_no_op_without_mallopt(libc, lib):
    libc(lib)
    assert parallel.hold_heap() is None


def test_hold_heap_leaves_trimming_alone_when_mallopt_fails(libc):
    lib = libc(StandInLibc(result=0))
    parallel.hold_heap()
    assert lib.calls == [(parallel.M_MMAP_THRESHOLD, 4 << 20)]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    """stdout of `code` in a fresh interpreter with lungmix on its path."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n" + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_lungmix_leaves_the_allocator_alone():
    out = run_python("""
        import ctypes

        looked_up = []

        class Recording(ctypes.CDLL):
            def __getattr__(self, name):
                looked_up.append(name)
                return super().__getattr__(name)

        ctypes.CDLL = Recording
        import lungmix, lungmix.cli
        from lungmix import parallel

        print("mallopt" in looked_up, parallel.hold_heap.cache_info().currsize)
    """)
    assert out.split() == ["False", "0"]


def has_glibc_mallopt() -> bool:
    try:
        return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Minor page faults per 9 s, 16 kHz record after the first, through
# `lungmix preprocess`: about 870 when each record's multi-MB buffers are
# mapped afresh, under 10 when they stay in the heap.
FAULTS_PER_RECORD = 100


@pytest.mark.skipif(not has_glibc_mallopt(), reason="the heap policy is glibc's mallopt")
def test_preprocess_reuses_the_heap_across_records(tmp_path):
    manifest = make_corpus(tmp_path / "corpus", CorpusPlan(per_class=2, duration_s=9.0), 5)
    wavs = sorted(str(p) for p in manifest.parent.glob("*.wav"))
    assert len(wavs) == 8
    out = run_python(f"""
        import contextlib, io, resource
        import lungmix.cli

        faults = []
        for i, wav in enumerate({wavs!r}):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with contextlib.redirect_stdout(io.StringIO()):
                assert lungmix.cli.main(["preprocess", "--in", wav, "--out", {str(tmp_path)!r} + f"/out{{i}}"]) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(*faults)
    """)
    faults = [int(n) for n in out.split()]
    assert sum(faults[1:]) / len(faults[1:]) < FAULTS_PER_RECORD, faults
