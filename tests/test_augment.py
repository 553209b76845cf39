"""Batch augmentation: the per-run source store and streamed export."""

import hashlib
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.io import wavfile

from lungmix import augment, masks, mixing
from lungmix.audio_io import read_wav, write_wav
from lungmix.augment import AugmentPlan, augment_corpus
from lungmix.dataset import align_records, load_manifest
from lungmix.errors import InvalidConfig, ParseError
from lungmix.mixing import STRATEGIES, MixRequest, lungmix_trace
from lungmix.pipeline import PipelineConfig, Waveform, condition, featurize
from lungmix.rng import derive_rng
from lungmix.synth import CorpusPlan, make_corpus


def run_digest(out_dir):
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def test_plan_rejects_zero_pairs():
    with pytest.raises(InvalidConfig, match="n_pairs"):
        AugmentPlan(n_pairs=0)


def test_store_prepares_each_key_once_under_contention():
    keys = [key for key in range(6) for _ in range(5)]
    prepared = Counter()
    lock = threading.Lock()

    def prepare(key):
        with lock:
            prepared[key] += 1
        time.sleep(0.001)  # widen the window in which other threads miss too
        return key * 10

    store = augment._SourceStore(keys, prepare)
    taken = [[] for _ in range(8)]

    def worker(i):
        taken[i].extend(store.take(key) for key in keys[i::8])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert prepared == Counter(range(6))
    assert sorted(v for part in taken for v in part) == sorted(key * 10 for key in keys)
    assert len(store) == 0


def test_store_hands_a_failed_preparation_to_every_taker():
    def prepare(key):
        raise ParseError(f"cannot read {key}")

    store = augment._SourceStore(["k", "k"], prepare)
    for _ in range(2):
        with pytest.raises(ParseError):
            store.take("k")
    assert len(store) == 0


@pytest.fixture(scope="module")
def mixed_lengths(tmp_path_factory):
    """Two 2 s records per class; one of each class cut to 1 s, so patchmix
    at a 1.5 s clip both stores whole spectrograms and pads per pair."""
    out = tmp_path_factory.mktemp("mixed_lengths")
    manifest = make_corpus(out, CorpusPlan(per_class=2, duration_s=2.0, n_events=2), 11)
    for wav in sorted(out.glob("*-000.wav")):
        rate, data = wavfile.read(wav)
        wavfile.write(wav, rate, data[: rate])
    return manifest


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_store_decodes_once_and_workers_agree(mixed_lengths, tmp_path, monkeypatch, strategy):
    decoded = []
    stores = []
    lock = threading.Lock()
    real_read_wav = augment.read_wav

    def counting_read_wav(path):
        with lock:
            decoded.append(path)
        return real_read_wav(path)

    class RecordedStore(augment._SourceStore):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    monkeypatch.setattr(augment, "read_wav", counting_read_wav)
    monkeypatch.setattr(augment, "_SourceStore", RecordedStore)
    records = align_records(load_manifest(mixed_lengths))
    cfg = PipelineConfig(clip_seconds=1.5)
    digests = []
    for workers in (1, 2):
        decoded.clear()
        plan = AugmentPlan(strategy=strategy, n_pairs=12, workers=workers)
        out = tmp_path / f"w{workers}"
        manifest = augment_corpus(records, mixed_lengths, out, plan, cfg, 5)
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        used = {r["provenance"][side] for r in rows for side in ("source_a", "source_b")}
        assert len(decoded) == len(set(decoded)) == len(used)
        assert len(stores[-1]) == 0
        digests.append(run_digest(out))
    assert digests[0] == digests[1]


@pytest.fixture
def count_loudness(monkeypatch):
    """Count `loudness_mask` calls at both of its binding sites."""
    calls = []
    lock = threading.Lock()
    real = masks.loudness_mask

    def counting(w):
        with lock:
            calls.append(len(w))
        return real(w)

    monkeypatch.setattr(augment, "loudness_mask", counting)
    monkeypatch.setattr(mixing, "loudness_mask", counting)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_lungmix_takes_loudness_once_per_source(mixed_lengths, tmp_path, count_loudness, workers):
    records = align_records(load_manifest(mixed_lengths))
    plan = AugmentPlan(n_pairs=12, workers=workers)
    manifest = augment_corpus(records, mixed_lengths, tmp_path, plan, PipelineConfig(), 5)
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    used = {r["provenance"][side] for r in rows for side in ("source_a", "source_b")}
    assert len(count_loudness) == len(used) < 2 * len(rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_rolled_stored_masks_give_the_recomputed_bytes(
    mixed_lengths, tmp_path, monkeypatch, workers
):
    """Every pair equals `lungmix_trace` on the same rolled sources with its
    loudness masks computed afresh, in float64."""
    mixed = []
    real_mix_one = augment._mix_one

    def recording_mix_one(seed, pair, *args):
        result = real_mix_one(seed, pair, *args)
        mixed.append((seed, pair, result))
        return result

    monkeypatch.setattr(augment, "_mix_one", recording_mix_one)
    records = align_records(load_manifest(mixed_lengths))
    plan = AugmentPlan(n_pairs=12, workers=workers)
    augment_corpus(records, mixed_lengths, tmp_path, plan, PipelineConfig(), 5)
    assert len(mixed) == 12
    for seed, pair, result in mixed:
        a, b = (read_wav(mixed_lengths.parent / rec.audio_path) for rec in pair)
        prov = result.provenance
        if prov.rolled == "a":
            a = Waveform(np.roll(a.samples, prov.roll_offset), a.sample_rate)
        else:
            b = Waveform(np.roll(b.samples, prov.roll_offset), b.sample_rate)
        req = MixRequest(a, result.label, b, result.label, plan.mix_params(seed))
        trace = lungmix_trace(req)
        assert trace.mixed.samples.tobytes() == result.audio.samples.tobytes()


@pytest.mark.parametrize(
    ("seconds", "cached"), [(6.0, 598), (8.95, 866), (0.05, None)], ids=["6s", "8.95s", "0.05s"]
)
def test_stored_padded_source_gives_featurize_bytes(tmp_path, seconds, cached):
    """A padded patchmix source's cached columns plus a pair's noise give the
    bytes `featurize` gives on the uncached waveform with that noise."""
    path = tmp_path / "short.wav"
    rng = np.random.default_rng(3)
    write_wav(path, Waveform(rng.normal(0, 0.1, int(round(seconds * 16000))), 16000))
    cfg = PipelineConfig()
    source = augment._prepare(path, AugmentPlan(strategy="patchmix"), cfg)
    assert (None if source.head is None else source.head.shape[1]) == cached
    for seed in (1, 2):
        stored = featurize(source.wave, cfg, derive_rng(seed, "prep", "a"), source.head)[1]
        whole = featurize(condition(read_wav(path), cfg), cfg, derive_rng(seed, "prep", "a"))[1]
        assert stored.bins.tobytes() == whole.bins.tobytes()


@pytest.fixture(scope="module")
def one_second_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_second")
    manifest = make_corpus(out, CorpusPlan(per_class=1, duration_s=1.0, n_events=1), 2)
    return manifest, align_records(load_manifest(manifest))


@pytest.mark.parametrize("workers", [1, 2])
def test_peak_memory_does_not_grow_with_pairs(one_second_corpus, tmp_path, workers):
    manifest, records = one_second_corpus

    def peak(n_pairs):
        plan = AugmentPlan(n_pairs=n_pairs, workers=workers)
        tracemalloc.start()
        try:
            augment_corpus(records, manifest, tmp_path / f"p{n_pairs}", plan, PipelineConfig(), 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) <= 1.5 * peak(8)
