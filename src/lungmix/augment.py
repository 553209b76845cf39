"""Batch augmentation over a manifest.

Each pair gets its own random stream derived from (master seed, pair index),
so results are identical no matter how many workers run or in what order the
pool schedules them. What is deterministic about a source record is prepared
once per run by `_prepare`, into one read-only `_Source`: decode and resample;
for lungmix, the loudness mask; for patchmix, bandpass, then the record's
`padding_split` at the clip: the normalised log-mel columns that padding noise
cannot touch, in float32, with the samples after them. The exporting thread
submits every job in pair order: a source's preparation before the first pair
that uses it, then the pair's job with the futures of its two preparations.
It forgets a preparation once its last pair is submitted, so the source is
freed when that pair has been mixed. Only the seeded per-pair work runs per
pair: for lungmix, the kernel's roll of a waveform and its stored mask; for
patchmix, `padded_spectrogram`'s noise and the mel frames it overlaps, written
with the stored columns into one float32 spectrogram (no noise and no frame
for a record that fills the clip).
Results stream to the exporter in pair order, so memory does not grow with the
pair count.
"""

from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Literal

import numpy as np

from .audio_io import read_wav
from .dataset import PAIRINGS, RecordManifest, export_augmented, pair_records, resolve_audio_path
from .errors import InvalidConfig, check_fields
from .labels import FOUR_CLASS, MODES, LabelVector
from .masks import SEMANTICS, MixParams, loudness_mask
from .mixing import PATCH_SIZE, STRATEGIES, MixRequest, MixResult, mix
from .pipeline import (
    PipelineConfig,
    Spectrogram,
    Waveform,
    condition,
    padded_spectrogram,
    padding_split,
    resample,
)
from .rng import derive_rng, derive_seed

# The most worker threads a run may start. Twice as many results are held in
# flight (about 1.1 MB each for a 9 s clip at 16 kHz), so unbounded, the flag
# and not the corpus would set a run's memory and thread count.
MAX_WORKERS = 64


@dataclass(frozen=True)
class AugmentPlan:
    strategy: Literal[STRATEGIES] = "lungmix"
    interpolation: Literal[MODES] = "nonlinear"
    alpha: float = MixParams.alpha
    lam: float | None = MixParams.lam
    random_density: float = MixParams.random_density
    semantics: Literal[SEMANTICS] = MixParams.semantics
    pairing: Literal[PAIRINGS] = "uniform"
    n_pairs: int = 10
    apply_roll: bool = True
    workers: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.n_pairs < 1:
            raise InvalidConfig(f"n_pairs must be at least 1, got {self.n_pairs}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise InvalidConfig(f"workers must be from 1 to {MAX_WORKERS}, got {self.workers}")
        self.mix_params(0)  # MixParams checks the ranges of alpha, lam and random_density

    def mix_params(self, seed: int) -> MixParams:
        """The mixing knobs of the pair whose stream descends from `seed`."""
        return MixParams(
            alpha=self.alpha,
            lam=self.lam,
            seed=seed,
            random_density=self.random_density,
            semantics=self.semantics,
        )


def _label_of(record: RecordManifest) -> LabelVector:
    if record.label_unified is None:
        raise InvalidConfig(f"record {record.record_id} has no unified label")
    return FOUR_CLASS.vector(record.label_unified)


def _in_order(futures, ahead: int):
    """Yield the results of already-submitted `futures` in order, drawing the
    next future only after yielding one, so at most `ahead` of them are
    submitted but not yet yielded.

    `pool.map` would submit every job at once, and finished results would pile
    up whenever the consumer falls behind.
    """
    futures = iter(futures)
    pending: deque[Future] = deque(islice(futures, ahead))
    while pending:
        yield pending.popleft().result()
        pending.extend(islice(futures, 1))


@dataclass(frozen=True, eq=False)
class _Source:
    """A prepared record, shared read-only by every pair that uses it.
    `audio` is what a pair mixes (see `_prepare`), `loud` is lungmix's
    `loudness_mask`, which the kernel rolls with the waveform. A patchmix
    source holds its `padding_split`: in `audio` only its normalised float32
    head columns, which padding noise cannot touch, in `rest` its samples
    from the first frame after them on, and in `length` its sample count,
    each cut at the clip."""

    audio: Waveform | Spectrogram
    loud: np.ndarray | None = None
    rest: np.ndarray | None = None
    length: int = 0

    def __post_init__(self):
        audio = self.audio.bins if isinstance(self.audio, Spectrogram) else self.audio.samples
        for array in (audio, self.loud, self.rest):
            if array is not None:
                array.flags.writeable = False


def _prepare(path: Path, plan: AugmentPlan, pipeline_cfg: PipelineConfig) -> _Source:
    """A source's deterministic preparation: the waveform resampled to the
    pipeline's rate, with its loudness mask for lungmix. For patchmix, the
    bandpassed record's `padding_split`, so a pair computes only the frames
    its padding noise overlaps."""
    audio = read_wav(path)
    if plan.strategy != "patchmix":
        audio = resample(audio, pipeline_cfg.target_rate)
        return _Source(audio, loud=loudness_mask(audio) if plan.strategy == "lungmix" else None)
    head, rest, length = padding_split(condition(audio, pipeline_cfg), pipeline_cfg)
    return _Source(head, rest=rest, length=length)


def _mix_one(
    seed: int,
    pair: tuple[RecordManifest, RecordManifest],
    sources: tuple[_Source, _Source],
    plan: AugmentPlan,
    pipeline_cfg: PipelineConfig,
) -> MixResult:
    rec_a, rec_b = pair
    audio_a, audio_b = (s.audio for s in sources)

    lungmix = plan.strategy == "lungmix"
    if plan.strategy == "patchmix":
        # each side padded to the clip with this pair's noise
        audio_a, audio_b = (
            padded_spectrogram(
                s.audio, s.rest, s.length, pipeline_cfg, derive_rng(seed, "prep", side)
            )
            for s, side in zip(sources, "ab")
        )
    req = MixRequest(
        audio_a=audio_a,
        label_a=_label_of(rec_a),
        audio_b=audio_b,
        label_b=_label_of(rec_b),
        params=plan.mix_params(seed),
        strategy=plan.strategy,
        interpolation=plan.interpolation,
        id_a=rec_a.record_id,
        id_b=rec_b.record_id,
        loudness=tuple(s.loud for s in sources) if lungmix else None,
        # rolling diversifies the lungmix pair; the plain baselines stay unrolled
        roll=lungmix and plan.apply_roll,
    )
    return mix(req)


def augment_corpus(
    records: list[RecordManifest],
    manifest_path,
    out_dir,
    plan: AugmentPlan,
    pipeline_cfg: PipelineConfig,
    master_seed: int,
) -> Path:
    """Pair, mix, and export; returns the output manifest path."""
    if plan.strategy == "patchmix" and (
        pipeline_cfg.mel_bins % PATCH_SIZE or pipeline_cfg.frames % PATCH_SIZE
    ):
        raise InvalidConfig(
            f"a {pipeline_cfg.mel_bins}x{pipeline_cfg.frames} spectrogram is not "
            f"divisible into {PATCH_SIZE}x{PATCH_SIZE} patches"
        )
    manifest_path = Path(manifest_path)
    pairs = pair_records(records, plan.n_pairs, plan.pairing, derive_rng(master_seed, "pairing"))

    paths = [tuple(resolve_audio_path(rec, manifest_path) for rec in pair) for pair in pairs]

    def job(i: int, prepared: list[Future]) -> MixResult:
        sources = tuple(f.result() for f in prepared)
        return _mix_one(derive_seed(master_seed, "mix", i), pairs[i], sources, plan, pipeline_cfg)

    def submitted(pool: ThreadPoolExecutor):
        # runs only in the exporting thread; the pool dequeues first in, first
        # out, so every preparation starts before any job that waits on it
        uses = Counter(path for pair in paths for path in pair)
        prepared: dict[Path, Future] = {}
        for i, pair in enumerate(paths):
            futures = []
            for path in pair:
                if path not in prepared:
                    prepared[path] = pool.submit(_prepare, path, plan, pipeline_cfg)
                futures.append(prepared[path])
                uses[path] -= 1
                if not uses[path]:
                    del prepared[path]
            yield pool.submit(job, i, futures)

    # results are exported as they arrive, in pair order, never all held at once
    with ThreadPoolExecutor(max_workers=plan.workers) as pool:
        results = _in_order(submitted(pool), ahead=2 * plan.workers)
        return export_augmented(results, out_dir, datasets=[a.dataset for a, _ in pairs])
