"""Synthetic respiratory-like test signals with exact event annotations.

Crackles are modeled as short exponentially decaying noise bursts, wheezes as
amplitude-enveloped tones inside the analysis passband. The generators exist
so mask, mixing, and label behavior can be verified against known ground
truth without any real recordings.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import write_wav
from .dataset import RecordManifest, save_manifest
from .errors import InvalidConfig, reject_non_finite
from .labels import FOUR_CLASS
from .pipeline import Waveform, bandpass
from .rng import derive_rng, derive_seed

# passband of the noise floor under every record
NOISE_BAND = (50.0, 1500.0)


@dataclass(frozen=True)
class SynthSpec:
    label: str = "normal"
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
        reject_non_finite(self)
        if self.label not in FOUR_CLASS.categories():
            raise InvalidConfig(f"unknown class {self.label!r}")
        if self.duration_s <= 0 or self.sample_rate <= 0:
            raise InvalidConfig("duration and sample rate must be positive")
        if round(self.duration_s * self.sample_rate) < 1:
            raise InvalidConfig(f"{self.duration_s} s at {self.sample_rate} Hz rounds to no sample")
        if self.n_events < 0:
            raise InvalidConfig("n_events must be non-negative")
        if self.tone_hz is not None and not (100.0 <= self.tone_hz <= 1000.0):
            raise InvalidConfig("tone_hz must lie within [100, 1000] Hz")
        if self.noise_floor < 0:
            raise InvalidConfig("noise_floor must be non-negative")
        max_event_s = max(self.burst_ms, self.tone_ms) / 1000.0
        if self.n_events and max_event_s * self.n_events > self.duration_s:
            raise InvalidConfig("events do not fit inside the signal duration")


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


def _add_crackles(
    x: np.ndarray, spec: SynthSpec, rng: np.random.Generator
) -> list[tuple[float, float, str]]:
    rate = spec.sample_rate
    width = max(int(round(spec.burst_ms / 1000.0 * rate)), 1)
    events = []
    for onset_s in _event_slots(spec.n_events, spec.duration_s, spec.burst_ms / 1000.0, rng):
        start = int(round(onset_s * rate))
        stop = min(start + width, x.size)
        t = np.arange(stop - start)
        burst = rng.uniform(-1.0, 1.0, stop - start) * np.exp(-5.0 * t / width)
        x[start:stop] += spec.burst_amp * burst
        events.append((start / rate, stop / rate, "crackle"))
    return events


def _add_wheezes(
    x: np.ndarray, spec: SynthSpec, rng: np.random.Generator
) -> list[tuple[float, float, str]]:
    rate = spec.sample_rate
    tone_hz = spec.tone_hz if spec.tone_hz is not None else float(rng.uniform(100.0, 1000.0))
    width = max(int(round(spec.tone_ms / 1000.0 * rate)), 2)
    events = []
    for onset_s in _event_slots(spec.n_events, spec.duration_s, spec.tone_ms / 1000.0, rng):
        start = int(round(onset_s * rate))
        stop = min(start + width, x.size)
        t = np.arange(stop - start)
        envelope = np.hanning(stop - start)
        x[start:stop] += spec.tone_amp * envelope * np.sin(2.0 * np.pi * tone_hz * t / rate)
        events.append((start / rate, stop / rate, "wheeze"))
    return events


def synth(spec: SynthSpec) -> tuple[Waveform, RecordManifest]:
    """Generate one annotated record; identical specs give identical bytes."""
    rng = derive_rng(spec.seed, spec.label)
    n = int(round(spec.duration_s * spec.sample_rate))
    x = _noise_floor(n, spec.noise_floor, spec.sample_rate, rng)

    events: list[tuple[float, float, str]] = []
    if spec.label in ("crackle", "both"):
        events += _add_crackles(x, spec, rng)
    if spec.label in ("wheeze", "both"):
        events += _add_wheezes(x, spec, rng)
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
    duration_s: float = 9.0
    sample_rate: int = 16000
    n_events: int = 3

    def __post_init__(self):
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
