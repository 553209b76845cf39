"""`claim_process`: OpenBLAS is set to one thread and glibc's thresholds
once, only by the entry points, no kernel's bytes depend on the thread count,
and records then reuse the heap."""

import ctypes
import platform
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lungmix import cli, parallel, pipeline
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


@needs_openblas
@pytest.mark.parametrize("mel_bins", [128, 64, 32])
def test_kernel_bytes_same_inside_and_outside_a_pool(three_blas_threads, mel_bins):
    """At 3 OpenBLAS threads and at 1, on the caller and on a pool's worker."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        on_caller = kernel_bytes(mel_bins)
        assert pool.submit(kernel_bytes, mel_bins).result() == on_caller
        BLAS[1](1)
        assert kernel_bytes(mel_bins) == on_caller
        assert pool.submit(kernel_bytes, mel_bins).result() == on_caller


class StandInLibc:
    """`ctypes.CDLL(None)` with a `mallopt` that records each call."""

    def __init__(self, result: int = 1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


class StandInBlas:
    """`_openblas()`'s (get, set) pair, recording each count set; only the
    setter is called."""

    def __init__(self):
        self.counts = []
        self.handles = None, self.counts.append


@pytest.fixture
def libc(monkeypatch):
    """Put `lib` in place of libc, and `blas` in place of OpenBLAS, for
    `claim_process`. Its cache is cleared before and after, so no call through
    a stand-in is remembered as applied."""

    def install(lib, blas=None):
        def cdll(name):
            if isinstance(lib, Exception):
                raise lib
            return lib

        monkeypatch.setattr(parallel.ctypes, "CDLL", cdll)
        monkeypatch.setattr(parallel, "_openblas", lambda: blas and blas.handles)
        return lib

    parallel.claim_process.cache_clear()
    yield install
    parallel.claim_process.cache_clear()


def test_claim_process_sets_both_thresholds_once(libc):
    lib = libc(StandInLibc())
    for _ in range(3):
        parallel.claim_process()
    assert lib.calls == [
        (parallel.M_MMAP_THRESHOLD, 4 << 20),
        (parallel.M_TRIM_THRESHOLD, 8 << 20),
    ]


def test_claim_process_sets_one_blas_thread_once(libc):
    blas = StandInBlas()
    libc(StandInLibc(), blas)
    for _ in range(3):
        parallel.claim_process()
    assert blas.counts == [1]


@pytest.mark.parametrize("lib", [OSError("no libc"), object()], ids=["cdll-raises", "no-mallopt"])
def test_claim_process_is_a_no_op_without_mallopt(libc, lib):
    blas = StandInBlas()
    libc(lib, blas)
    assert parallel.claim_process() is None
    assert blas.counts == [1]


def test_claim_process_without_openblas_still_holds_the_heap(libc):
    lib = libc(StandInLibc(), None)
    parallel.claim_process()
    assert len(lib.calls) == 2


def test_claim_process_leaves_trimming_alone_when_mallopt_fails(libc):
    lib = libc(StandInLibc(result=0))
    parallel.claim_process()
    assert lib.calls == [(parallel.M_MMAP_THRESHOLD, 4 << 20)]


@needs_openblas
def test_cli_leaves_openblas_on_one_thread(three_blas_threads, tmp_path):
    manifest = make_corpus(tmp_path / "corpus", CorpusPlan(per_class=1, duration_s=3.0), 2)
    parallel.claim_process.cache_clear()
    assert cli.main(["augment", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--pairs", "2", "--workers", "2"]) == 0
    assert blas_threads() == 1


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
    """Nor OpenBLAS's thread count: neither setter is looked up."""
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

        print("mallopt" in looked_up, parallel.claim_process.cache_info().currsize,
              parallel._openblas.cache_info().currsize)
    """)
    assert out.split() == ["False", "0", "0"]


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
