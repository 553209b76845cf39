"""Batch augmentation over a manifest.

Each pair gets its own random stream derived from (master seed, pair index),
so results are identical no matter how many workers run or in what order the
pool schedules them.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .audio_io import read_wav
from .dataset import RecordManifest, export_augmented, pair_records, resolve_audio_path
from .errors import InvalidConfig
from .labels import FOUR_CLASS, LabelSchema, LabelVector
from .masks import MixParams
from .mixing import MixRequest, MixResult, mix, shift_roll_pair
from .pipeline import PipelineConfig, preprocess, resample
from .rng import derive_rng, derive_seed


@dataclass(frozen=True)
class AugmentPlan:
    strategy: str = "lungmix"
    interpolation: str = "nonlinear"
    alpha: float = 1.0
    lam: float | None = None
    random_density: float = 0.5
    semantics: str = "loudness_precedence"
    pairing: str = "uniform"
    n_pairs: int = 10
    master_seed: int = 0
    apply_roll: bool = True
    target_rate: int = 16000
    workers: int = 1


def _label_of(record: RecordManifest, schema: LabelSchema) -> LabelVector:
    if record.label_unified is None:
        raise InvalidConfig(f"record {record.record_id} has no unified label")
    return schema.vector(record.label_unified)


def _mix_one(
    index: int,
    pair: tuple[RecordManifest, RecordManifest],
    plan: AugmentPlan,
    manifest_path: Path,
    schema: LabelSchema,
    pipeline_cfg: PipelineConfig,
) -> MixResult:
    rec_a, rec_b = pair
    seed = derive_seed(plan.master_seed, "mix", index)
    audio_a = resample(read_wav(resolve_audio_path(rec_a, manifest_path)), plan.target_rate)
    audio_b = resample(read_wav(resolve_audio_path(rec_b, manifest_path)), plan.target_rate)
    params = MixParams(
        alpha=plan.alpha,
        lam=plan.lam,
        seed=seed,
        random_density=plan.random_density,
        semantics=plan.semantics,
    )

    rolled = offset = None
    if plan.strategy == "patchmix":
        audio_a = preprocess(audio_a, pipeline_cfg, derive_rng(seed, "prep", "a"))[1]
        audio_b = preprocess(audio_b, pipeline_cfg, derive_rng(seed, "prep", "b"))[1]
    elif plan.apply_roll and plan.strategy == "lungmix":
        # rolling diversifies the lungmix pair; the plain baselines stay unrolled
        audio_a, audio_b, rolled, offset = shift_roll_pair(
            audio_a, audio_b, derive_rng(seed, "roll")
        )
    req = MixRequest(
        audio_a=audio_a,
        label_a=_label_of(rec_a, schema),
        audio_b=audio_b,
        label_b=_label_of(rec_b, schema),
        params=params,
        strategy=plan.strategy,
        interpolation=plan.interpolation,
        id_a=rec_a.record_id,
        id_b=rec_b.record_id,
    )
    result = mix(req)
    if rolled is not None:
        result = replace(
            result, provenance=replace(result.provenance, rolled=rolled, roll_offset=offset)
        )
    return result


def augment_corpus(
    records: list[RecordManifest],
    manifest_path,
    out_dir,
    plan: AugmentPlan,
    schema: LabelSchema = FOUR_CLASS,
    pipeline_cfg: PipelineConfig | None = None,
) -> Path:
    """Pair, mix, and export; returns the output manifest path."""
    if plan.n_pairs <= 0:
        raise InvalidConfig("n_pairs must be positive")
    pipeline_cfg = pipeline_cfg or PipelineConfig(target_rate=plan.target_rate)
    manifest_path = Path(manifest_path)
    pairs = pair_records(
        records, plan.n_pairs, plan.pairing, derive_rng(plan.master_seed, "pairing")
    )

    def job(i: int) -> MixResult:
        return _mix_one(i, pairs[i], plan, manifest_path, schema, pipeline_cfg)

    if plan.workers > 1:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(job, range(len(pairs))))
    else:
        results = [job(i) for i in range(len(pairs))]

    datasets = [a.dataset for a, _ in pairs]
    return export_augmented(results, out_dir, datasets=datasets)
