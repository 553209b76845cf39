"""Synthetic corpus generators checked by running the mask engine on them."""

import numpy as np
import pytest

from lungmix.errors import InvalidConfig
from lungmix.labels import FOUR_CLASS
from lungmix.masks import MixParams, loudness_mask
from lungmix.mixing import MixRequest, lungmix
from lungmix.synth import CorpusPlan, SynthSpec, make_corpus, synth


def interval_samples(events, rate, n):
    """Boolean vector marking every sample inside a declared event interval."""
    inside = np.zeros(n, dtype=bool)
    for onset, offset, _cls in events:
        inside[int(round(onset * rate)) : int(round(offset * rate))] = True
    return inside


class TestGeneration:
    def test_crackle_event_count(self):
        _, rec = synth(SynthSpec(label="crackle", n_events=3, seed=1))
        assert rec.events is not None and len(rec.events) == 3
        assert all(cls == "crackle" for _, _, cls in rec.events)

    def test_both_superposes_event_kinds(self):
        _, rec = synth(SynthSpec(label="both", n_events=2, seed=2))
        kinds = {cls for _, _, cls in rec.events}
        assert kinds == {"crackle", "wheeze"}
        assert len(rec.events) == 4

    def test_normal_has_no_events(self):
        _, rec = synth(SynthSpec(label="normal", seed=3))
        assert rec.events is None

    def test_deterministic(self):
        w1, _ = synth(SynthSpec(label="wheeze", seed=4))
        w2, _ = synth(SynthSpec(label="wheeze", seed=4))
        assert np.array_equal(w1.samples, w2.samples)

    def test_events_inside_duration(self):
        w, rec = synth(SynthSpec(label="both", n_events=3, seed=5))
        for onset, offset, _cls in rec.events:
            assert 0.0 <= onset < offset <= w.duration + 1e-9

    def test_invalid_spec_raises(self):
        with pytest.raises(InvalidConfig):
            SynthSpec(label="cough")
        with pytest.raises(InvalidConfig):
            SynthSpec(tone_hz=50.0)
        with pytest.raises(InvalidConfig):
            SynthSpec(duration_s=1.0, n_events=5)  # tones cannot fit


class TestMaskBehaviour:
    def test_normal_mask_density_low(self):
        w, _ = synth(SynthSpec(label="normal", seed=6))
        assert loudness_mask(w).mean() < 0.05

    def test_every_burst_interval_is_masked(self):
        spec = SynthSpec(label="crackle", n_events=3, burst_amp=0.5, noise_floor=0.05, seed=7)
        w, rec = synth(spec)
        mask = loudness_mask(w)
        for onset, offset, _cls in rec.events:
            lo = int(round(onset * w.sample_rate))
            hi = int(round(offset * w.sample_rate))
            assert mask[lo:hi].any()

    def test_energy_locality(self):
        for label in ("crackle", "wheeze"):
            w, rec = synth(SynthSpec(label=label, seed=8))
            inside = interval_samples(rec.events, w.sample_rate, len(w))
            power = np.square(w.samples)
            floor_power = power[~inside].mean()
            above_inside = power[inside].sum() - floor_power * inside.sum()
            above_total = power.sum() - floor_power * len(w)
            assert above_inside / above_total >= 0.9


class TestLabelSoundness:
    def test_crackle_plus_wheeze_mixes_to_both(self):
        wc, rc = synth(SynthSpec(label="crackle", seed=9))
        ww, rw = synth(SynthSpec(label="wheeze", seed=10))
        req = MixRequest(
            audio_a=wc,
            label_a=FOUR_CLASS.vector(rc.label_unified),
            audio_b=ww,
            label_b=FOUR_CLASS.vector(rw.label_unified),
            params=MixParams(seed=11),
            strategy="lungmix",
            interpolation="nonlinear",
        )
        assert lungmix(req).label.name == "both"


class TestCorpus:
    def test_make_corpus_layout(self, tmp_path):
        manifest = make_corpus(tmp_path, CorpusPlan(per_class=2), 12)
        lines = manifest.read_text().strip().splitlines()
        assert len(lines) == 8
        wavs = sorted(p.name for p in tmp_path.glob("*.wav"))
        assert len(wavs) == 8

    def test_make_corpus_deterministic(self, tmp_path):
        import hashlib

        def digest(root):
            h = hashlib.sha256()
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    h.update(p.name.encode())
                    h.update(p.read_bytes())
            return h.hexdigest()

        a, b = tmp_path / "a", tmp_path / "b"
        make_corpus(a, CorpusPlan(per_class=1), 13)
        make_corpus(b, CorpusPlan(per_class=1), 13)
        assert digest(a) == digest(b)
