"""Golden output digests: fixed inputs and seeds must reproduce these bytes.

A digest may change only in a commit whose CHANGES.md entry says why. The
corpora are small (8 records of 4 s; 4 records of at most 9.5 s; 8 records at
44.1 and 8 kHz) so the whole file runs in seconds. Files hold float32 or int16,
which hide most float64 rounding changes, so the FLOAT64 digests hash the
arrays of the main kernels before any quantisation.
"""

import hashlib
import json

import numpy as np
import pytest

from lungmix.audio_io import write_wav
from lungmix.augment import AugmentPlan, _mix_one, _prepare
from lungmix.cli import main
from lungmix.dataset import RecordManifest, load_manifest, save_manifest
from lungmix.labels import FOUR_CLASS
from lungmix.pipeline import (
    PipelineConfig,
    Waveform,
    fit_length,
    mel_head,
    mel_spectrogram,
    normalize_spectrogram,
)
from lungmix.rng import derive_rng
from lungmix.synth import SynthSpec, synth

# (strategy, mode) -> sha256 of augmented.jsonl plus every file it lists
AUGMENT = {
    ("lungmix", "linear"): "e3e0c402e7b1278bb13ec5258208b3f784a34134d4be5318d7f506e304e2dd6e",
    ("lungmix", "nonlinear"): "bce3ab42541dd175fc6c9ac7ea28b08eb62b4beb6b8b8f38ae3a180f6b720598",
    ("lungmix", "combined"): "db2551d743140143674d20b838092fd6a3da97d4fad8c71fb50142deacf2d703",
    ("lungmix", "preserve"): "5207d820aa3d25db7ede88a8507475d3af66e223929debcf010c05eb29ee5724",
    ("mixup", "linear"): "30aac982a2d443bdfaa0f92e91c8b6eca2fa96e8495cab1cc107ba85423f4ff0",
    ("mixup", "nonlinear"): "abaacb83cac5cea130c545e7f6b545dc79960cbd4753b6ec62d018d7bf508250",
    ("mixup", "combined"): "0764e7037eba832fe6ad68ac29340ff132f6bf1a6e1cf7d577f0385c95628429",
    ("mixup", "preserve"): "4903dc2bc8bd90b27fef68a93b2da6822e210f0f5f991f80f2c196c164880f82",
    ("cutmix", "linear"): "8b7c5e352e3130f330909bce83fb8304b095cc829c1dea2bcaf0bad835a6e0be",
    ("cutmix", "nonlinear"): "a39b8f814156372172771ab808a308bb7af36db96ddb535c08608d00361a1c10",
    ("cutmix", "combined"): "3d52a9f2af0c1e1e91c7c2a7a703cec6e03bd5ca98fd7a36b0aecf83c3aa10bf",
    ("cutmix", "preserve"): "ef414c9713843b554eb2f6a6363689bb386088f3dc090b6c49e090f74534aa08",
    ("patchmix", "linear"): "5e6bf9d37d079695b0bb32d703325b547b31baa3ea1d7cba1b7bfdfb07092825",
    ("patchmix", "nonlinear"): "39d2d913c5e4545865b570f9bf3aecfa94cf8845c5ee07b8a320ab37c69e9354",
    ("patchmix", "combined"): "afcda2da9c8b2b02e25ffa2f58ef8dc7eefb3ced1252c2e54f46a438692be3c5",
    ("patchmix", "preserve"): "b1c690f87fe58a85d691a692ee07e30c63198dce4b03d36f7a6a34cdacca2b3e",
}
# sha256 of the `synth --per-class 2 --duration 4 --seed 3` corpus: corpus.jsonl
# plus every WAV it lists
SYNTH_CORPUS = "7d79c0dca27eaa7a3b5dd085331a47905a523c8fa2b999619c8b5471af569730"
LUNGMIX_NO_ROLL_MAX = "8d28cb7b7b46e48072168cffb62d977b01fe6e881476f58bab92f55301e9118c"
INSPECT_MASK_CSV = "ce6017c32bd6305ff5f54f2630701b95ee8bd1a09c2e50e583f504d730ec8a1b"
PREPROCESS_SPEC = "f382b1b0adc883c202bec153ffe51989ba3b89828617890d8dc959938db76f67"

# 16 kHz record lengths against the 9 s clip: cut; padded, with 598 cached mel
# columns and 300 that each pair computes; padded with 893 cached and 5 per
# pair; padded with 3 cached and 895 per pair
PATCHMIX_SECONDS = (9.5, 6.0, 8.95, 0.05)
PATCHMIX_PADDING = "9edd8ef988c7b773513a5b767c3b8170b02ecf62a75c9504b46e5a0e18723f04"
# strategy -> digest over a corpus synthesized at 44.1 kHz (4 s) and 8 kHz (9.5 s)
MIXED_RATE = {
    "lungmix": "edfb7d46c0e0fffa5662eddaabdc03da8bc9a66413c9060edf01aa1e5ae82d0a",
    "patchmix": "dadf2dbfe7e522ffc1b98346b9f92c3c492f09310fc1b46ef99867b6f7a7e2c9",
}
PREPROCESS_44K_SPEC = "03dfdf82fd6e36b0fc06b62be85382f1903a1aa003d2c9a29ba56087532443d3"
# sha256 of float64 `.tobytes()` on a 9 s 16 kHz synth record: its log-mel, that
# log-mel normalised, its first 6 s padded and stitched onto its cached head;
# and on lungmix blends of rolled pairs of a 4 s and a 3 s record: the default
# plan, `max` semantics with the shorter side padded and rolled, and the longer
# side rolled with lam pinned at 0 and at 1, where the mask only copies samples
FLOAT64 = {
    "mel_spectrogram": "6f48eb2e72b1da5ae363cddb511690b4c8bf5db6b195d0c3a3722b085118eaee",
    "normalize_spectrogram": "3c56ee6baa77b84b55056d8534c46ffa19f2d08974b67dca06d3b80f89b4368e",
    "stitched_padded_mel": "68dd788e86b3490ad2e52ee7349824bdb9356c5e572d199aad26f9b7007f1b29",
    "rolled_lungmix_mix": "2f0a827ee35f425c689a4e677e78675189058f3ec0ed5b1076ccce84178bdfd4",
    "max_shorter_rolled_mix": "cba8b9f9882eea75accacb2eeda92f509d8392d26f54bbd31215b313d1db7881",
    "lam0_longer_rolled_mix": "b40e1cb014c361638be2e99cada42a550ed390d01d116ea96023e4c4d28d160b",
    "lam1_longer_rolled_mix": "badbc1b645296cdbf41245ce9245aae1e9b6b1c21de855446653df31c4b95775",
}


def sha256(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def manifest_digest(out, name="augmented.jsonl") -> str:
    """sha256 of the manifest `name` in `out` plus every file it lists."""
    manifest = (out / name).read_bytes()
    rows = [json.loads(line) for line in manifest.decode().splitlines() if line.strip()]
    return sha256(manifest, *((out / row["audio_path"]).read_bytes() for row in rows))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_corpus")
    rc = main(["synth", "--out", str(out), "--per-class", "2", "--duration", "4", "--seed", "3"])
    assert rc == 0
    return out


def test_synth_corpus_digest(corpus):
    assert manifest_digest(corpus, "corpus.jsonl") == SYNTH_CORPUS


def augment(corpus, out, *flags) -> str:
    rc = main([
        "augment", "--manifest", str(corpus / "corpus.jsonl"), "--out", str(out),
        "--pairs", "4", "--seed", "7", *flags,
    ])
    assert rc == 0
    return manifest_digest(out)


@pytest.mark.parametrize(("strategy", "mode"), list(AUGMENT))
def test_augment_digest(corpus, tmp_path, strategy, mode):
    digest = augment(corpus, tmp_path / "aug", "--strategy", strategy, "--mode", mode)
    assert digest == AUGMENT[strategy, mode]


def test_lungmix_no_roll_max_semantics_digest(corpus, tmp_path):
    digest = augment(
        corpus, tmp_path / "aug", "--strategy", "lungmix", "--mode", "nonlinear",
        "--no-roll", "--semantics", "max",
    )
    assert digest == LUNGMIX_NO_ROLL_MAX


def test_inspect_mask_csv_digest(corpus, tmp_path):
    out = tmp_path / "mask.csv"
    rc = main([
        "inspect-mask", "--a", str(corpus / "synth-crackle-000.wav"),
        "--b", str(corpus / "synth-wheeze-001.wav"), "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    assert sha256(out.read_bytes()) == INSPECT_MASK_CSV


def test_preprocess_spec_digest(corpus, tmp_path):
    rc = main(["preprocess", "--in", str(corpus / "synth-both-000.wav"), "--out", str(tmp_path)])
    assert rc == 0
    assert sha256((tmp_path / "synth-both-000.spec").read_bytes()) == PREPROCESS_SPEC


@pytest.fixture(scope="module")
def patchmix_corpus(tmp_path_factory):
    """One 16 kHz record of each length in PATCHMIX_SECONDS: a tone in noise."""
    out = tmp_path_factory.mktemp("patchmix_corpus")
    rng = np.random.default_rng(11)
    rows = []
    for i, (seconds, label) in enumerate(zip(PATCHMIX_SECONDS, FOUR_CLASS.categories())):
        t = np.arange(int(round(seconds * 16000))) / 16000
        tone = 0.3 * np.sin(2 * np.pi * (200 + 150 * i) * t) + rng.normal(0, 0.05, t.size)
        write_wav(out / f"rec-{i}.wav", Waveform(tone, 16000))
        rows.append(RecordManifest(
            record_id=f"rec-{i}", audio_path=f"rec-{i}.wav", dataset="synthetic",
            split="train", label_raw=label, label_unified=label,
        ))
    save_manifest(rows, out / "corpus.jsonl")
    return out


@pytest.fixture(scope="module")
def mixed_rate_corpus(tmp_path_factory):
    """`synth` at 44.1 kHz and at 8 kHz, joined under one manifest."""
    out = tmp_path_factory.mktemp("mixed_rate_corpus")
    rows = []
    for rate, seconds in ((44100, "4"), (8000, "9.5")):
        part = out / str(rate)
        rc = main([
            "synth", "--out", str(part), "--per-class", "1", "--duration", seconds,
            "--sample-rate", str(rate), "--seed", "3",
        ])
        assert rc == 0
        for rec in load_manifest(part / "corpus.jsonl"):
            rec.record_id = f"{rec.record_id}-{rate}"
            rec.audio_path = f"{rate}/{rec.audio_path}"
            rows.append(rec)
    save_manifest(rows, out / "corpus.jsonl")
    return out


def test_patchmix_padding_digest(patchmix_corpus, tmp_path):
    out = tmp_path / "aug"
    digest = augment(
        patchmix_corpus, out, "--strategy", "patchmix", "--mode", "nonlinear", "--pairs", "8"
    )
    rows = [json.loads(line) for line in (out / "augmented.jsonl").read_text().splitlines()]
    used = {row["provenance"][side] for row in rows for side in ("source_a", "source_b")}
    assert used == {f"rec-{i}" for i in range(len(PATCHMIX_SECONDS))}
    assert digest == PATCHMIX_PADDING


@pytest.mark.parametrize("strategy", list(MIXED_RATE))
def test_mixed_rate_digest(mixed_rate_corpus, tmp_path, strategy):
    digest = augment(mixed_rate_corpus, tmp_path / "aug", "--strategy", strategy, "--pairs", "6")
    assert digest == MIXED_RATE[strategy]


def test_preprocess_44k_spec_digest(mixed_rate_corpus, tmp_path):
    wav = mixed_rate_corpus / "44100" / "synth-both-000.wav"
    rc = main(["preprocess", "--in", str(wav), "--out", str(tmp_path)])
    assert rc == 0
    assert sha256((tmp_path / "synth-both-000.spec").read_bytes()) == PREPROCESS_44K_SPEC


@pytest.fixture(scope="module")
def record_9s():
    return synth(SynthSpec(label="both", duration_s=9.0, seed=3))[0]


def test_float64_mel_spectrogram_digest(record_9s):
    bins = mel_spectrogram(record_9s, PipelineConfig()).bins
    assert sha256(bins.tobytes()) == FLOAT64["mel_spectrogram"]


def test_float64_normalize_spectrogram_digest(record_9s):
    cfg = PipelineConfig()
    spec = normalize_spectrogram(mel_spectrogram(record_9s, cfg), cfg.norm_mean, cfg.norm_std)
    assert sha256(spec.bins.tobytes()) == FLOAT64["normalize_spectrogram"]


def test_float64_stitched_padded_mel_digest(record_9s):
    cfg = PipelineConfig()
    short = Waveform(record_9s.samples[: 6 * 16000], 16000)
    head = mel_head(short, cfg)
    assert head.shape[1] == 598
    padded = fit_length(short, cfg.clip_seconds, derive_rng(1, "prep", "a"))
    bins = mel_spectrogram(padded, cfg, head).bins
    assert sha256(bins.tobytes()) == FLOAT64["stitched_padded_mel"]


def rolled_pair_mix(tmp_path, plan: AugmentPlan, seed: int):
    """`_mix_one` on a 4 s crackle and a 3 s wheeze record prepared for `plan`."""
    cfg = PipelineConfig()
    pair, sources = [], []
    for label, seconds in (("crackle", 4.0), ("wheeze", 3.0)):
        wave, rec = synth(SynthSpec(label=label, duration_s=seconds, seed=5))
        write_wav(tmp_path / f"{label}.wav", wave)
        pair.append(rec)
        sources.append(_prepare(tmp_path / f"{label}.wav", plan, cfg))
    result = _mix_one(seed, tuple(pair), tuple(sources), plan, cfg)
    assert len(result.audio) == 4 * 16000
    return result


def test_float64_rolled_lungmix_mix_digest(tmp_path):
    """One lungmix pair of unequal lengths through the augment path, rolled."""
    result = rolled_pair_mix(tmp_path, AugmentPlan(), 9)
    assert result.provenance.rolled is not None
    assert sha256(result.audio.samples.tobytes()) == FLOAT64["rolled_lungmix_mix"]


# digest name -> (plan, pair seed, side the pair rolls)
ROLLED_SIDE = {
    "max_shorter_rolled_mix": (AugmentPlan(semantics="max"), 1, "b"),
    "lam0_longer_rolled_mix": (AugmentPlan(lam=0.0), 2, "a"),
    "lam1_longer_rolled_mix": (AugmentPlan(lam=1.0), 2, "a"),
}


@pytest.mark.parametrize("name", list(ROLLED_SIDE))
def test_float64_rolled_side_digest(tmp_path, name):
    """The mask's `max` branch on a padded rolled side, and its copy-exact ends."""
    plan, seed, rolled = ROLLED_SIDE[name]
    result = rolled_pair_mix(tmp_path, plan, seed)
    assert result.provenance.rolled == rolled
    assert sha256(result.audio.samples.tobytes()) == FLOAT64[name]
