"""`claim_process`: glibc is set to one arena and its thresholds once, only
by the entry points, and records then reuse the one heap; and no kernel's
bytes depend on the BLAS."""

import ctypes
import inspect
import os
import platform
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lungmix import parallel
from lungmix.synth import CorpusPlan, make_corpus


class StandInLibc:
    """`ctypes.CDLL(None)` with a `mallopt` that records each call and returns
    `result`, or 0 for a parameter in `failing`."""

    def __init__(self, result: int = 1, failing=()):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 0 if param in failing else result

        self.mallopt = mallopt


@pytest.fixture
def libc(monkeypatch):
    """Put `lib` in place of libc for `claim_process`. Its cache is cleared
    before and after, so no call through a stand-in is remembered as applied."""

    def install(lib):
        def cdll(name):
            if isinstance(lib, Exception):
                raise lib
            return lib

        monkeypatch.setattr(parallel.ctypes, "CDLL", cdll)
        return lib

    parallel.claim_process.cache_clear()
    yield install
    parallel.claim_process.cache_clear()


ARENA_CALL = (parallel.M_ARENA_MAX, 1)
THRESHOLD_CALLS = [(parallel.M_MMAP_THRESHOLD, 4 << 20), (parallel.M_TRIM_THRESHOLD, 8 << 20)]


def test_claim_process_sets_both_thresholds_once(libc):
    """And caps glibc at one arena first, so no worker gets a heap of its own."""
    lib = libc(StandInLibc())
    for _ in range(3):
        parallel.claim_process()
    assert lib.calls == [ARENA_CALL, *THRESHOLD_CALLS]


@pytest.mark.parametrize("lib", [OSError("no libc"), object()], ids=["cdll-raises", "no-mallopt"])
def test_claim_process_is_a_no_op_without_mallopt(libc, lib):
    libc(lib)
    assert parallel.claim_process() is None


def test_claim_process_leaves_trimming_alone_when_mallopt_fails(libc):
    lib = libc(StandInLibc(result=0))
    parallel.claim_process()
    assert lib.calls == [ARENA_CALL, THRESHOLD_CALLS[0]]


def test_claim_process_sets_the_thresholds_when_only_the_arena_cap_fails(libc):
    lib = libc(StandInLibc(failing={parallel.M_ARENA_MAX}))
    parallel.claim_process()
    assert lib.calls == [ARENA_CALL, *THRESHOLD_CALLS]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, **env) -> subprocess.CompletedProcess:
    """`code`, run to success in a fresh interpreter with lungmix on its path
    and `env` added to the environment."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n" + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, env={**os.environ, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def kernel_digests(bins: tuple[int, ...] = (128, 64, 32)) -> list[str]:
    """sha256 of the float64 log-mel of an unfiltered seeded 9 s waveform, of
    `padded_spectrogram` stitches of its `padding_split` heads at several
    splits, and of `featurize` output there, at each of `bins` mel bins.
    Self-contained, so a fresh interpreter can run its source."""
    import hashlib

    import numpy as np

    from lungmix.pipeline import (
        PipelineConfig,
        Waveform,
        featurize,
        mel_spectrogram,
        padded_spectrogram,
        padding_split,
    )

    digests = []
    for mel_bins in bins:
        cfg = PipelineConfig(mel_bins=mel_bins)
        clip = Waveform(np.random.default_rng(mel_bins).standard_normal(144000) * 0.1, 16000)
        stitched, featurized = hashlib.sha256(), hashlib.sha256()
        for k in (1, 9, 18, 37, 449, 861, 880, 889, 897):
            record = Waveform(clip.samples[: 160 * (k - 1) + 400], 16000)
            spec = padded_spectrogram(*padding_split(record, cfg), cfg, np.random.default_rng(k))
            stitched.update(spec.bins.tobytes())
            featurized.update(featurize(record, cfg, np.random.default_rng(k))[1].bins.tobytes())
        whole = hashlib.sha256(mel_spectrogram(clip, cfg).bins.tobytes())
        digests += [whole.hexdigest(), stitched.hexdigest(), featurized.hexdigest()]
    return digests


@pytest.fixture(scope="module")
def digests_here():
    return kernel_digests()


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS core types are x86-64's"
)
@pytest.mark.parametrize(
    "env",
    [{}, {"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_CORETYPE": "Haswell"},
     {"OPENBLAS_CORETYPE": "Sandybridge"}],
    ids=["default", "3-threads", "haswell", "sandybridge"],
)
def test_mel_bytes_do_not_depend_on_the_blas(digests_here, env):
    """A fresh process under OpenBLAS's default kernels, at 3 threads, or
    with another core type's kernels forced gives this process's digests."""
    code = inspect.getsource(kernel_digests) + "\nprint(*kernel_digests())"
    assert run_python(code, **env).stdout.split() == digests_here


def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel, or
    None when numpy links another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))  # numpy has loaded it: this is the same copy
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.restype, set_.argtypes, set_.restype = ctypes.c_int, (ctypes.c_int,), None
        return get, set_
    return None


BLAS = openblas_threads()


@pytest.fixture
def three_blas_threads():
    """OpenBLAS at 3 threads, a count neither 1 nor a common default."""
    before = BLAS[0]()
    BLAS[1](3)
    yield
    BLAS[1](before)


@pytest.mark.skipif(BLAS is None, reason="numpy does not bundle OpenBLAS")
@pytest.mark.parametrize("mel_bins", [128, 64, 32])
def test_kernel_bytes_same_inside_and_outside_a_pool(three_blas_threads, mel_bins):
    """At 3 OpenBLAS threads and at 1, on the caller and on a pool's worker."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        on_caller = kernel_digests((mel_bins,))
        assert pool.submit(kernel_digests, (mel_bins,)).result() == on_caller
        BLAS[1](1)
        assert kernel_digests((mel_bins,)) == on_caller
        assert pool.submit(kernel_digests, (mel_bins,)).result() == on_caller


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

        print("mallopt" in looked_up, parallel.claim_process.cache_info().currsize)
    """).stdout
    assert out.split() == ["False", "0"]


def has_glibc_mallopt() -> bool:
    try:
        return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


needs_glibc = pytest.mark.skipif(not has_glibc_mallopt(), reason="the heap policy is glibc's mallopt")


@needs_glibc
def test_threads_share_one_arena_after_claim_process():
    """Four threads allocating numpy buffers leave glibc with the main arena
    alone; without the cap they add one arena each."""
    err = run_python("""
        import ctypes
        from concurrent.futures import ThreadPoolExecutor
        import numpy as np
        from lungmix import parallel

        parallel.claim_process()

        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                np.sort(rng.standard_normal(100_000) * 2.0)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(8)))
        ctypes.CDLL(None).malloc_stats()
    """).stderr
    arenas = [line for line in err.splitlines() if line.startswith("Arena")]
    assert arenas == ["Arena 0:"], err


# Minor page faults per 9 s, 16 kHz record after the first, through
# `lungmix preprocess`: about 870 when each record's multi-MB buffers are
# mapped afresh, under 10 when they stay in the heap.
FAULTS_PER_RECORD = 100


@needs_glibc
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
    """).stdout
    faults = [int(n) for n in out.split()]
    assert sum(faults[1:]) / len(faults[1:]) < FAULTS_PER_RECORD, faults
