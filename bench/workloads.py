"""The benchmark's workloads: corpus set-up, one timed pass, output check.

Set-up and the pass run in a fresh child process (`one_pass.py`); the check
runs in the parent on the files the pass left behind. The check reads WAV
and `.spec` files with scipy and numpy directly, not through lungmix, so a
bug in lungmix's readers cannot hide one in its writers.
"""

import hashlib
import importlib.util
import io
import json
import re
import struct
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

CLASSES = ("normal", "crackle", "wheeze", "both")
LABEL_BITS = {"normal": 0, "crackle": 1, "wheeze": 2, "both": 3}
BITS_LABEL = {v: k for k, v in LABEL_BITS.items()}
TARGET_RATE = 16000
SPEC_SHAPE = (128, 1024)
DEFAULT_SEED = 0
# lungmix's own master seed in the augment workloads. It draws the pairs, and
# the pairs set the work (which rates and lengths meet), so it is held fixed:
# every benchmark seed then does the same work on different signals.
AUGMENT_SEED = 0


@dataclass(frozen=True)
class AugmentWorkload:
    """`lungmix augment` over a synthetic corpus with one record per
    (class, variant); a variant is a (sample rate, duration in s) pair."""

    name: str
    variants: tuple
    strategy: str
    mode: str
    pairing: str
    pairs: int
    workers: int
    # sha256 of augmented.jsonl plus every output file, at DEFAULT_SEED
    pinned_sha256: str

    def setup(self, work: Path, seed: int) -> list:
        """Build the corpus; returns the namespaces outside lungmix to trace (none)."""
        from lungmix.audio_io import write_wav
        from lungmix.dataset import save_manifest
        from lungmix.rng import derive_seed
        from lungmix.synth import SynthSpec, synth

        corpus = work / "corpus"
        corpus.mkdir(parents=True)
        rows = []
        for label in CLASSES:
            for v, (rate, duration) in enumerate(self.variants):
                spec = SynthSpec(
                    label=label,
                    duration_s=duration,
                    sample_rate=rate,
                    seed=derive_seed(seed, "bench", label, v),
                )
                wave, rec = synth(spec)
                rec.record_id = f"{label}-{rate}-{v}"
                rec.audio_path = f"{rec.record_id}.wav"
                write_wav(corpus / rec.audio_path, wave)
                rows.append(rec)
        save_manifest(rows, corpus / "corpus.jsonl")
        return []

    def run(self, work: Path, seed: int) -> dict:
        import lungmix.cli

        argv = [
            "augment",
            "--manifest", str(work / "corpus" / "corpus.jsonl"),
            "--out", str(work / "out"),
            "--strategy", self.strategy,
            "--mode", self.mode,
            "--pairing", self.pairing,
            "--pairs", str(self.pairs),
            "--workers", str(self.workers),
            "--seed", str(AUGMENT_SEED),
        ]
        with redirect_stdout(io.StringIO()):
            code = lungmix.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"lungmix augment exited with {code}")
        return {}

    def pairs_written(self, work: Path) -> int:
        return _count_rows(work / "out" / "augmented.jsonl")

    def check(self, work: Path, seed: int, result: dict) -> str | None:
        """None when the pass's outputs are correct, else the reason."""
        sources = _source_table(work / "corpus" / "corpus.jsonl")
        out = work / "out"
        problem = _check_augmented(out, sources, self.pairs, self.strategy, self.mode)
        if problem is None and seed == DEFAULT_SEED:
            digest = _digest(out)
            if digest != self.pinned_sha256:
                problem = f"output sha256 {digest} != pinned {self.pinned_sha256}"
        return problem


@dataclass
class ExperimentWorkload:
    """`scripts/run_synthetic_experiment.py` at its defaults, seeded."""

    name: str
    script: str
    # (strategy, mode) of each augmented directory the script writes
    strategies: tuple
    pairs: int
    pinned_table: dict  # strategy -> (Se, Sp, Sc) at DEFAULT_SEED

    def setup(self, work: Path, seed: int) -> list:
        """Import the script; returns it, as it binds lungmix names to trace."""
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("run_synthetic_experiment", root / self.script)
        self._module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self._module)
        return [self._module]

    def run(self, work: Path, seed: int) -> dict:
        argv = sys.argv
        sys.argv = [self.script, "--out", str(work / "out"), "--seed", str(seed)]
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                self._module.main()
        finally:
            sys.argv = argv
        return {"table": buf.getvalue()}

    def pairs_written(self, work: Path) -> int:
        return sum(_count_rows(work / "out" / f"aug_{name}" / "augmented.jsonl")
                   for name, _ in self.strategies)

    def check(self, work: Path, seed: int, result: dict) -> str | None:
        table = parse_table(result.get("table", ""))
        expected = ["none"] + [name for name, _ in self.strategies]
        if list(table) != expected:
            return f"Sc table rows {list(table)} != {expected}"
        for name, (se, sp, sc) in table.items():
            if not all(0.0 <= v <= 100.0 for v in (se, sp, sc)):
                return f"{name}: rates outside [0, 100]: {se}, {sp}, {sc}"
            if abs((se + sp) / 2.0 - sc) > 0.011:
                return f"{name}: Sc {sc} is not the mean of Se {se} and Sp {sp}"
        if seed == DEFAULT_SEED and table != self.pinned_table:
            return f"Sc table {table} != pinned {self.pinned_table}"
        out = work / "out"
        sources = _source_table(out / "train" / "corpus.jsonl")
        for name, mode in self.strategies:
            problem = _check_augmented(out / f"aug_{name}", sources, self.pairs, name, mode)
            if problem:
                return f"aug_{name}: {problem}"
        return None


def parse_table(text: str) -> dict:
    """strategy -> (Se, Sp, Sc) from the experiment script's printed table."""
    table = {}
    for line in text.splitlines():
        m = re.fullmatch(r"\s*(\w+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*", line)
        if m:
            table[m.group(1)] = tuple(float(g) for g in m.groups()[1:])
    return table


def _count_rows(manifest: Path) -> int:
    with open(manifest) as fh:
        return sum(1 for line in fh if line.strip())


def _rows(manifest: Path) -> list[dict]:
    with open(manifest) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _source_table(manifest: Path) -> dict:
    """record_id -> (label, length after resampling to TARGET_RATE)."""
    table = {}
    for row in _rows(manifest):
        rate, data = wavfile.read(manifest.parent / row["audio_path"], mmap=True)
        # resample_poly's output length: ceil(n * target / rate)
        table[row["record_id"]] = (row["label_unified"], -(-len(data) * TARGET_RATE // rate))
    return table


def _expected_label(mode: str, label_a: str, label_b: str, lam: float) -> str:
    if mode in ("nonlinear", "combined"):
        return BITS_LABEL[LABEL_BITS[label_a] | LABEL_BITS[label_b]]
    if mode == "preserve":
        return label_a
    return label_a if lam >= 0.5 else label_b  # linear: dominant-weight source


def _check_augmented(out: Path, sources: dict, pairs: int, strategy: str, mode: str) -> str | None:
    rows = _rows(out / "augmented.jsonl")
    if len(rows) != pairs:
        return f"{len(rows)} manifest rows for {pairs} pairs"
    for row in rows:
        prov = row["provenance"]
        rid = row["record_id"]
        if (prov["strategy"], prov["interpolation"]) != (strategy, mode):
            return f"{rid}: provenance {prov['strategy']}/{prov['interpolation']}"
        label_a, len_a = sources[prov["source_a"]]
        label_b, len_b = sources[prov["source_b"]]
        want = _expected_label(mode, label_a, label_b, prov["lam"])
        if row["label_unified"] != want:
            return f"{rid}: label {row['label_unified']} != {want} ({mode} of {label_a}, {label_b})"
        path = out / row["audio_path"]
        if path.suffix == ".spec":
            raw = path.read_bytes()
            shape = struct.unpack("<II", raw[:8])
            if shape != SPEC_SHAPE or len(raw) != 8 + 4 * SPEC_SHAPE[0] * SPEC_SHAPE[1]:
                return f"{rid}: spectrogram {shape}, {len(raw)} bytes"
            if not np.isfinite(np.frombuffer(raw[8:], dtype="<f4")).all():
                return f"{rid}: spectrogram holds NaN or Inf"
        else:
            rate, data = wavfile.read(path)
            want_len = max(len_a, len_b)
            if rate != TARGET_RATE or data.dtype != np.int16 or data.shape != (want_len,):
                return f"{rid}: WAV {rate} Hz {data.dtype} {data.shape}, want {want_len} samples"
    return None


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    manifest = out / "augmented.jsonl"
    h.update(manifest.read_bytes())
    for row in _rows(manifest):
        h.update((out / row["audio_path"]).read_bytes())
    return h.hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        # Records at 44.1 kHz (9 s, 5 s) and 4 kHz (7 s): every pair decodes
        # and resamples both sources, up or down, and pads the shorter one.
        AugmentWorkload(
            name="wave-lungmix",
            variants=((44100, 9.0), (44100, 5.0), (4000, 7.0)),
            strategy="lungmix",
            mode="nonlinear",
            pairing="cross-class",
            pairs=96,
            workers=1,
            pinned_sha256="a37f9a8a3e2ede76ad25d12ced83a971f2741dc2fa8e66ed05eadf0ce5b935eb",
        ),
        # 16 kHz records of 12 s (cut) and 6 s (noise-padded): resample is a
        # pass-through, bandpass and log-mel carry the work, on 2 threads.
        AugmentWorkload(
            name="spec-patchmix",
            variants=((16000, 12.0), (16000, 6.0)),
            strategy="patchmix",
            mode="preserve",
            pairing="uniform",
            pairs=48,
            workers=2,
            pinned_sha256="452015c144cff6afe0fb7f0098870f182312743326fa22503d7cfc94d8db6d6c",
        ),
        ExperimentWorkload(
            name="experiment",
            script="scripts/run_synthetic_experiment.py",
            strategies=(("mixup", "linear"), ("cutmix", "nonlinear"),
                        ("patchmix", "preserve"), ("lungmix", "nonlinear")),
            pairs=6,
            pinned_table={
                "none": (72.22, 100.0, 86.11),
                "mixup": (66.67, 100.0, 83.33),
                "cutmix": (72.22, 100.0, 86.11),
                "patchmix": (72.22, 100.0, 86.11),
                "lungmix": (77.78, 100.0, 88.89),
            },
        ),
    )
}
