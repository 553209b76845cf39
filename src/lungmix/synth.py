"""Synthetic respiratory-like test signals with exact event annotations.

Crackles are modeled as short exponentially decaying noise bursts, wheezes as
amplitude-enveloped tones inside the analysis passband. The generators exist
so mask, mixing, and label behavior can be verified against known ground
truth without any real recordings.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .audio_io import write_wav
from .dataset import RecordManifest, save_manifest
from .errors import InvalidConfig, check_fields
from .labels import FOUR_CLASS
from .pipeline import Waveform, bandpass, sample_count
from .rng import derive_rng, derive_seed

# passband of the noise floor under every record
NOISE_BAND = (50.0, 1500.0)
CORPUS_FILES = re.compile(r"corpus\.jsonl|synth-[a-z]+-\d{3,}\.wav")  # what make_corpus writes


@dataclass(frozen=True)
class SynthSpec:
    label: Literal[FOUR_CLASS.categories()] = "normal"
    duration_s: float = 9.0
    sample_rate: int = 16000
    n_events: int = 3
    burst_ms: float = 10.0
    burst_amp: float = 0.5
    tone_hz: float | None = None  # None draws one tone in [100, 1000]
    tone_amp: float = 0.4
    tone_ms: float = 800.0
    noise_floor: float = 0.02
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.duration_s <= 0 or self.sample_rate <= 0:
            raise InvalidConfig("duration and sample rate must be positive")
        if sample_count(self.duration_s, self.sample_rate, "duration_s") < 1:
            raise InvalidConfig(f"{self.duration_s} s at {self.sample_rate} Hz rounds to no sample")
        if self.n_events < 0:
            raise InvalidConfig("n_events must be non-negative")
        if self.tone_hz is not None and not (100.0 <= self.tone_hz <= 1000.0):
            raise InvalidConfig("tone_hz must lie within [100, 1000] Hz")
        if self.noise_floor < 0:
            raise InvalidConfig("noise_floor must be non-negative")
        longest_ms = max(self.burst_ms, self.tone_ms)
        if self.n_events * longest_ms > self.duration_s * 1000.0:
            raise InvalidConfig(
                f"n_events={self.n_events} events of up to {longest_ms:g} ms need "
                f"{self.n_events * longest_ms / 1000.0:g} s, more than "
                f"duration_s={self.duration_s:g}: lower --n-events or raise --duration"
            )


def _noise_floor(n: int, amp: float, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Band-limited noise clipped so it never crosses the loudness threshold."""
    white = rng.uniform(-1.0, 1.0, n) * amp
    if amp == 0.0 or n < 32:
        return white
    shaped = bandpass(Waveform(white, rate), *NOISE_BAND).samples
    bound = 1.8 * shaped.std()
    return np.clip(shaped, -bound, bound)


def _event_slots(
    n_events: int, duration_s: float, event_s: float, rng: np.random.Generator
) -> list[float]:
    """One onset per equal slot, jittered; guarantees non-overlapping events."""
    onsets = []
    slot = duration_s / max(n_events, 1)
    for k in range(n_events):
        lo = k * slot
        hi = (k + 1) * slot - event_s
        onsets.append(float(rng.uniform(lo, max(hi, lo))))
    return onsets


def _add_events(
    x: np.ndarray, spec: SynthSpec, rng: np.random.Generator, kind: str, event_ms: float,
    min_width: int, shape,
) -> list[tuple[float, float, str]]:
    """Add `shape(size, width)` at each of `n_events` onsets, all drawn before
    the first shape, and annotate each event as `kind`."""
    rate = spec.sample_rate
    width = max(sample_count(event_ms / 1000.0, rate, f"{kind} width"), min_width)
    events = []
    for onset_s in _event_slots(spec.n_events, spec.duration_s, event_ms / 1000.0, rng):
        start = sample_count(onset_s, rate, f"{kind} onset")
        stop = min(start + width, x.size)
        x[start:stop] += shape(stop - start, width)
        events.append((start / rate, stop / rate, kind))
    return events


def synth(spec: SynthSpec) -> tuple[Waveform, RecordManifest]:
    """Generate one annotated record; identical specs give identical bytes."""
    rng = derive_rng(spec.seed, spec.label)
    n = sample_count(spec.duration_s, spec.sample_rate, "duration_s")
    x = _noise_floor(n, spec.noise_floor, spec.sample_rate, rng)

    def crackle(size: int, width: int) -> np.ndarray:  # exponentially decaying noise burst
        return spec.burst_amp * (rng.uniform(-1.0, 1.0, size) * np.exp(-5.0 * np.arange(size) / width))

    def wheeze(size: int, width: int) -> np.ndarray:  # Hann-enveloped tone
        t = np.arange(size)
        return spec.tone_amp * np.hanning(size) * np.sin(2.0 * np.pi * tone_hz * t / spec.sample_rate)

    events: list[tuple[float, float, str]] = []
    if spec.label in ("crackle", "both"):
        events += _add_events(x, spec, rng, "crackle", spec.burst_ms, 1, crackle)
    if spec.label in ("wheeze", "both"):
        tone_hz = spec.tone_hz if spec.tone_hz is not None else float(rng.uniform(100.0, 1000.0))
        events += _add_events(x, spec, rng, "wheeze", spec.tone_ms, 2, wheeze)
    events.sort()

    record = RecordManifest(
        record_id=f"synth-{spec.label}-{spec.seed}",
        audio_path="",
        dataset="synthetic",
        split="train",
        label_raw=spec.label,
        label_unified=spec.label,
        events=events or None,
    )
    return Waveform(np.clip(x, -1.0, 1.0), spec.sample_rate), record


@dataclass(frozen=True)
class CorpusPlan:
    """What `make_corpus` writes: per_class records of each class."""

    per_class: int = 1
    duration_s: float = SynthSpec.duration_s
    sample_rate: int = SynthSpec.sample_rate
    n_events: int = SynthSpec.n_events

    def __post_init__(self):
        check_fields(self)
        if self.per_class < 1:
            raise InvalidConfig(f"per_class must be at least 1, got {self.per_class}")
        self.spec("normal", 0)  # SynthSpec checks duration, sample rate and n_events
        if self.sample_rate / 2 <= NOISE_BAND[1]:
            raise InvalidConfig(f"{NOISE_BAND} Hz noise band exceeds Nyquist at {self.sample_rate} Hz")

    def spec(self, label: str, seed: int) -> SynthSpec:
        return SynthSpec(label, self.duration_s, self.sample_rate, self.n_events, seed=seed)


def make_corpus(out_dir, plan: CorpusPlan, master_seed: int) -> Path:
    """Write the plan's records plus corpus.jsonl; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for label in FOUR_CLASS.categories():
        for k in range(plan.per_class):
            wave, rec = synth(plan.spec(label, derive_seed(master_seed, label, k)))
            rec.record_id = f"synth-{label}-{k:03d}"
            rec.audio_path = f"{rec.record_id}.wav"
            write_wav(out_dir / rec.audio_path, wave)
            rows.append(rec)
    return save_manifest(rows, out_dir / "corpus.jsonl")
