"""Batch augmentation: each source prepared once per run and freed after its
last pair, the same bytes at every worker count, and streamed export."""

import hashlib
import json
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import fields
from typing import get_args, get_type_hints

import numpy as np
import pytest
from scipy.io import wavfile

from lungmix import augment, masks, mixing
from lungmix.audio_io import read_wav, write_wav
from lungmix.augment import AugmentPlan, augment_corpus
from lungmix.dataset import RecordManifest, align_records, load_manifest, resolve_audio_path
from lungmix.errors import InvalidConfig, ParseError
from lungmix.mixing import STRATEGIES, MixRequest, lungmix_trace
from lungmix.pipeline import PipelineConfig, Spectrogram, Waveform, condition, featurize
from lungmix.rng import derive_rng
from lungmix.synth import CorpusPlan, SynthSpec, make_corpus


def run_digest(out_dir):
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def test_plan_rejects_zero_pairs():
    with pytest.raises(InvalidConfig, match="n_pairs"):
        AugmentPlan(n_pairs=0)


CONFIG_CLASSES = (PipelineConfig, masks.MixParams, SynthSpec, AugmentPlan, CorpusPlan)


def annotated(*kinds) -> list[tuple[type, str]]:
    """(class, field) for every field of a config class whose annotation
    admits one of `kinds`."""
    pairs = []
    for cls in CONFIG_CLASSES:
        hints = get_type_hints(cls)
        pairs += [(cls, f.name) for f in fields(cls) if {*kinds} & {hints[f.name], *get_args(hints[f.name])}]
    return pairs


def class_name(x):
    return getattr(x, "__name__", x)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("cls, field", annotated(float), ids=class_name)
def test_config_rejects_non_finite_floats(cls, field, value):
    with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
        cls(**{field: value})


@pytest.mark.parametrize("value", [True, 2.0, 1.5], ids=repr)
@pytest.mark.parametrize("cls, field", annotated(int), ids=class_name)
def test_config_int_fields_reject_bools_and_floats(cls, field, value):
    with pytest.raises(InvalidConfig, match=f"{field} must be int"):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", annotated(int, float), ids=class_name)
def test_config_rejects_ints_too_large_for_a_float(cls, field):
    with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
        cls(**{field: 10**400})


@pytest.mark.parametrize("cls, field", annotated(int), ids=class_name)
def test_config_int_fields_accept_numpy_integers(cls, field):
    default = getattr(cls(), field)
    assert getattr(cls(**{field: np.int64(default)}), field) == default


@pytest.mark.parametrize(
    ("cls", "field"),
    [(SynthSpec, "duration_s"), (CorpusPlan, "duration_s"), (PipelineConfig, "clip_seconds"),
     (PipelineConfig, "window_ms"), (PipelineConfig, "hop_ms")],
    ids=class_name,
)
def test_config_rejects_spans_no_array_holds(cls, field):
    """1e308 is finite, but its sample count is not."""
    with pytest.raises(InvalidConfig, match=f"{field} spans more samples"):
        cls(**{field: 1e308})


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
    lock = threading.Lock()
    real_read_wav = augment.read_wav

    def counting_read_wav(path):
        with lock:
            decoded.append(path)
        return real_read_wav(path)

    monkeypatch.setattr(augment, "read_wav", counting_read_wav)
    records = align_records(load_manifest(mixed_lengths))
    cfg = PipelineConfig(clip_seconds=1.5)
    digests = []
    interval = sys.getswitchinterval()
    # 8 workers: more threads than cores, switching as often as the interpreter allows
    for workers in (1, 2, 8):
        decoded.clear()
        plan = AugmentPlan(strategy=strategy, n_pairs=12, workers=workers)
        out = tmp_path / f"w{workers}"
        sys.setswitchinterval(1e-6 if workers == 8 else interval)
        try:
            manifest = augment_corpus(records, mixed_lengths, out, plan, cfg, 5)
        finally:
            sys.setswitchinterval(interval)
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        used = {r["provenance"][side] for r in rows for side in ("source_a", "source_b")}
        assert len(decoded) == len(set(decoded)) == len(used)
        digests.append(run_digest(out))
    assert len(set(digests)) == 1


def freed(ref, timeout: float = 10.0) -> bool:
    """Whether `ref` dies within `timeout`. A pool worker drops its finished
    job, and the futures the job was given, just after publishing the job's
    result, so the exporter may see the result a moment before that."""
    deadline = time.monotonic() + timeout
    while ref() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
    return ref() is None


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("strategy", ["lungmix", "patchmix"])
def test_sources_are_freed_after_their_last_pair(
    mixed_lengths, tmp_path, monkeypatch, strategy, workers
):
    """When the exporter takes pair i, every prepared source whose last pair
    is at most i has been freed."""
    records = align_records(load_manifest(mixed_lengths))
    ids = {resolve_audio_path(rec, mixed_lengths): rec.record_id for rec in records}
    plan = AugmentPlan(strategy=strategy, n_pairs=12, workers=workers)
    cfg = PipelineConfig(clip_seconds=1.5)
    first = augment_corpus(records, mixed_lengths, tmp_path / "first", plan, cfg, 5)
    last_pair = {}
    for i, line in enumerate(first.read_text().splitlines()):
        provenance = json.loads(line)["provenance"]
        last_pair[provenance["source_a"]] = last_pair[provenance["source_b"]] = i

    prepared = {}
    real_prepare = augment._prepare
    real_export = augment.export_augmented

    def recording_prepare(path, *args):
        source = real_prepare(path, *args)
        prepared[ids[path]] = weakref.ref(source)
        return source

    def checked(results):
        for i, result in enumerate(results):
            done = [rid for rid, last in last_pair.items() if last <= i]
            assert all(freed(prepared[rid]) for rid in done), f"pair {i}"
            yield result

    monkeypatch.setattr(augment, "_prepare", recording_prepare)
    monkeypatch.setattr(
        augment, "export_augmented", lambda results, *a, **k: real_export(checked(results), *a, **k)
    )
    augment_corpus(records, mixed_lengths, tmp_path / "second", plan, cfg, 5)
    assert prepared.keys() == last_pair.keys()
    assert run_digest(tmp_path / "first") == run_digest(tmp_path / "second")


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_preparation_fails_the_run(mixed_lengths, tmp_path, monkeypatch, workers):
    def failing_prepare(path, *args):
        raise ParseError(f"cannot read {path.name}")

    monkeypatch.setattr(augment, "_prepare", failing_prepare)
    records = align_records(load_manifest(mixed_lengths))
    plan = AugmentPlan(n_pairs=12, workers=workers)
    with pytest.raises(ParseError, match="cannot read"):
        augment_corpus(records, mixed_lengths, tmp_path / "out", plan, PipelineConfig(), 5)
    assert not (tmp_path / "out" / "augmented.jsonl").exists()


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
    ("seconds", "cached"), [(6.0, 598), (8.95, 893), (0.05, 3)], ids=["6s", "8.95s", "0.05s"]
)
def test_stored_padded_source_gives_featurize_bytes(tmp_path, seconds, cached):
    """A padded patchmix source's cached columns plus a pair's noise give the
    bytes `featurize` gives on the uncached waveform with that noise."""
    path = tmp_path / "short.wav"
    rng = np.random.default_rng(3)
    write_wav(path, Waveform(rng.normal(0, 0.1, int(round(seconds * 16000))), 16000))
    cfg = PipelineConfig()
    source = augment._prepare(path, AugmentPlan(strategy="patchmix"), cfg)
    assert source.head.shape[1] == cached
    for seed in (1, 2):
        stored = featurize(source.audio, cfg, derive_rng(seed, "prep", "a"), source.head)[1]
        whole = featurize(condition(read_wav(path), cfg), cfg, derive_rng(seed, "prep", "a"))[1]
        assert stored.bins.tobytes() == whole.bins.tobytes()


@pytest.mark.parametrize(
    ("strategy", "seconds", "kept"),
    [
        ("lungmix", 2.0, (Waveform, "loud")),
        ("mixup", 2.0, (Waveform,)),
        ("patchmix", 1.0, (Waveform, "head")),
        ("patchmix", 2.0, (Spectrogram,)),
    ],
    ids=["lungmix", "mixup", "padded-patchmix", "unpadded-patchmix"],
)
def test_prepared_source_is_read_only(tmp_path, strategy, seconds, kept):
    """A source holds what its strategy reuses and nothing else, all of it
    read-only; a stored spectrogram keeps no waveform beside it."""
    path = tmp_path / "r.wav"
    write_wav(path, Waveform(np.random.default_rng(4).normal(0, 0.1, int(seconds * 16000)), 16000))
    plan, cfg = AugmentPlan(strategy=strategy), PipelineConfig(clip_seconds=1.5)
    source = augment._prepare(path, plan, cfg)
    audio_type, *reused = kept
    assert type(source.audio) is audio_type
    assert [name for name in ("loud", "head") if getattr(source, name) is not None] == reused
    arrays = [*vars(source.audio).values(), source.loud, source.head]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == len(kept)
    assert not any(a.flags.writeable for a in arrays)


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


@pytest.mark.parametrize(("seed", "rolled"), [(2, "a"), (0, "b")])
def test_lungmix_pair_peak_memory(seed, rolled):
    """One pair of a 9 s and a 5 s source, rolling either side, allocates
    under four times its 9 s result: no full-length mask or blend temporary.
    Rolling, padding, masking and blending through full-length arrays peaked
    at 5.1 and 5.6 times."""
    rng = np.random.default_rng(12)
    pair, sources = [], []
    for name, seconds in (("crackle", 9), ("wheeze", 5)):
        wave = Waveform(rng.normal(0, 0.1, seconds * 16000), 16000)
        sources.append(augment._Source(wave, loud=masks.loudness_mask(wave)))
        pair.append(RecordManifest(
            record_id=name, audio_path=f"{name}.wav", dataset="synthetic", split="train",
            label_raw=name, label_unified=name,
        ))
    plan, cfg = AugmentPlan(), PipelineConfig()
    augment._mix_one(seed, tuple(pair), tuple(sources), plan, cfg)  # warm any caches
    tracemalloc.start()
    try:
        result = augment._mix_one(seed, tuple(pair), tuple(sources), plan, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.provenance.rolled == rolled
    assert peak < 4 * result.audio.samples.nbytes
