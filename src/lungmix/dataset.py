"""Manifest ingestion, label unification across corpora, and augmented export.

Manifests are JSONL, one record per line. Label maps translate each corpus's
raw vocabulary into the four reference classes; they are shipped as editable
data (see data/label_maps.json) seeded with the documented unification rules,
and raw names outside those rules must be added by the operator.
"""

import json
import logging
import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Literal

import numpy as np

from .audio_io import write_spectrogram, write_wav
from .errors import InvalidConfig, LungmixError, MissingAudio, ParseError, UnknownLabel, check_fields
from .labels import FOUR_CLASS
from .pipeline import Spectrogram, Waveform

log = logging.getLogger(__name__)

DATASETS = ("icbhi", "spr", "hf", "synthetic")
SPLITS = ("train", "test")
PAIRINGS = ("uniform", "cross-class")
# align_records fails the run when more than this share of records has an
# unregistered raw label
MAX_SKIP_RATE = 0.05
SNAPSHOT = "config_snapshot.json"  # a run's resolved config; every stage owns it
AUGMENT_FILES = re.compile(r"augmented\.jsonl|aug-\d{5,}\.(wav|spec)")  # what export_augmented writes


@dataclass
class RecordManifest:
    """One annotated audio segment with provenance."""

    record_id: str
    audio_path: str
    dataset: Literal[DATASETS]
    split: Literal[SPLITS]
    label_raw: str
    label_unified: Literal[FOUR_CLASS.categories()] | None = None
    segment: tuple[float, float] | None = None
    events: list[tuple[float, float, str]] | None = None
    soft_target: dict | None = None
    provenance: dict | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self)
        if self.segment is not None and not (0 <= self.segment[0] < self.segment[1]):
            raise InvalidConfig(f"segment times must satisfy 0 <= start < end, got {self.segment}")
        if self.events is not None and not all(0 <= start <= end for start, end, _ in self.events):
            raise InvalidConfig(f"events must satisfy 0 <= start <= end, got {self.events!r}")

    def to_dict(self) -> dict:
        out = {k: v for k, v in asdict(self).items() if v is not None and k != "extras"}
        out.update(self.extras)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RecordManifest":
        if not isinstance(data, dict):
            raise ParseError(f"a record must be a JSON object, got {data!r}")
        known = set(cls.__dataclass_fields__) - {"extras"}
        kwargs = {k: v for k, v in data.items() if k in known}
        extras = {k: v for k, v in data.items() if k not in known}
        for req in ("record_id", "audio_path", "dataset", "split", "label_raw"):
            if req not in kwargs:
                raise ParseError(f"missing required field {req!r}")
        if isinstance(kwargs.get("segment"), list):
            kwargs["segment"] = tuple(kwargs["segment"])
        if isinstance(kwargs.get("events"), list):
            kwargs["events"] = [tuple(e) if isinstance(e, list) else e for e in kwargs["events"]]
        return cls(**kwargs, extras=extras)


def default_label_maps() -> dict[str, dict[str, str]]:
    with resources.as_file(resources.files("lungmix.data") / "label_maps.json") as shipped:
        return load_label_maps(shipped)


def load_label_maps(path) -> dict[str, dict[str, str]]:
    return load_label_maps_data(read_json(path, "label maps"))


def load_label_maps_data(raw: dict) -> dict[str, dict[str, str]]:
    """Validate a raw label-map table; hf must never map onto 'both'."""
    if not isinstance(raw, dict):
        raise InvalidConfig("label maps must be a JSON object of per-dataset tables")
    maps: dict[str, dict[str, str]] = {}
    for dataset, table in raw.items():
        if dataset not in DATASETS:
            raise InvalidConfig(f"label map for unknown dataset {dataset!r}")
        if not isinstance(table, dict):
            raise InvalidConfig(f"label map {dataset} must be a JSON object")
        clean = {}
        for raw_label, unified in table.items():
            if unified not in FOUR_CLASS.categories():
                raise InvalidConfig(
                    f"label map {dataset}: {raw_label!r} -> unknown class {unified!r}"
                )
            clean[raw_label.strip().lower()] = unified
        if dataset == "hf" and "both" in clean.values():
            raise InvalidConfig("hf label map must not produce 'both'")
        maps[dataset] = clean
    return maps


# the shipped maps, read once and shared by every lookup that names no others
_shipped_label_maps = lru_cache(maxsize=None)(default_label_maps)


def align_label(dataset: str, raw: str, maps=None) -> str:
    """Table lookup from a corpus's raw label to the unified four-class name."""
    table = (_shipped_label_maps() if maps is None else maps).get(dataset)
    if table is None:
        raise UnknownLabel(f"no label map registered for dataset {dataset!r}")
    unified = table.get(raw.strip().lower())
    if unified is None:
        raise UnknownLabel(f"unknown raw label {raw!r} for dataset {dataset!r}")
    return unified


def align_records(records: list[RecordManifest], maps=None) -> list[RecordManifest]:
    """Fill label_unified on every record; skip-and-log records whose raw
    label is unregistered, failing the run if too many were skipped."""
    aligned: list[RecordManifest] = []
    skipped = 0
    for rec in records:
        try:
            rec.label_unified = align_label(rec.dataset, rec.label_raw, maps)
        except UnknownLabel as exc:
            skipped += 1
            log.warning("skipping %s: %s", rec.record_id, exc)
            continue
        aligned.append(rec)
    if records and skipped / len(records) > MAX_SKIP_RATE:
        raise UnknownLabel(
            f"{skipped}/{len(records)} records failed label alignment "
            f"(threshold {MAX_SKIP_RATE:.0%})"
        )
    return aligned


def load_manifest(path) -> list[RecordManifest]:
    """Read a JSONL manifest, validating every line; order is preserved.

    Relative audio paths are resolved against the manifest's directory when
    checking existence, but stored verbatim.
    """
    path = Path(path)
    if not path.exists():
        raise MissingAudio(f"manifest not found: {path}")
    records: list[RecordManifest] = []
    for lineno, rec in read_jsonl(path, RecordManifest.from_dict):
        # an empty path resolves to the manifest's own directory, which exists
        if not rec.audio_path or not resolve_audio_path(rec, path).exists():
            raise MissingAudio(f"{path}:{lineno}: audio file not found: {rec.audio_path!r}")
        records.append(rec)
    return records


def read_json(path, what: str) -> dict:
    """The JSON object a UTF-8 file holds. A file that cannot be read or
    decoded (`_decoded`) or holds no object is an InvalidConfig naming it as
    `what`: such a file configures a run, it is not data the run processes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidConfig(f"cannot read {what} {path}: {exc}") from exc
    for data in _decoded(raw, f"{what} {path}", InvalidConfig):
        if isinstance(data, dict):
            return data
    raise InvalidConfig(f"{what} {path} must hold a JSON object")


def read_jsonl(path, build):
    """(line number, `build(value)`) for each line of a UTF-8 JSONL file that
    holds more than whitespace, read as it is consumed. A line that `_decoded`
    or `build` refuses is one ParseError naming it."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            for value in _decoded(raw, f"{path}:{lineno}", ParseError):
                try:
                    row = build(value)
                except (LungmixError, KeyError, TypeError) as exc:
                    raise ParseError(f"{path}:{lineno}: bad row: {exc}") from exc
                yield lineno, row


def _decoded(raw: bytes, where: str, error: type[LungmixError]) -> list:
    """[the value the UTF-8 JSON bytes `raw` hold], or [] for whitespace alone
    (NBSP included): the one JSON decoder. It raises `error` naming `where`."""
    try:
        text = raw.decode("utf-8")
        return [json.loads(text)] if text.strip() else []
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, an int too long, too deep
        raise error(f"{where}: not valid UTF-8 JSON: {exc}") from exc


def resolve_audio_path(record: RecordManifest, manifest_path) -> Path:
    audio = Path(record.audio_path)
    if audio.is_absolute():
        return audio
    return Path(manifest_path).parent / audio


def save_manifest(records: list[RecordManifest], path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    return path


def export_augmented(results, out_dir, datasets=None) -> Path:
    """Write one audio file plus one manifest row per mix result.

    Waveform results become 16-bit PCM WAVs, spectrogram results the flat
    binary format. Re-running with identical inputs produces byte-identical
    files; manifest rows are emitted in input order with relative paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[RecordManifest] = []
    for i, result in enumerate(results):
        record_id = f"aug-{i:05d}"
        if isinstance(result.audio, Waveform):
            filename = f"{record_id}.wav"
            write_wav(out_dir / filename, result.audio)
        elif isinstance(result.audio, Spectrogram):
            filename = f"{record_id}.spec"
            write_spectrogram(out_dir / filename, result.audio)
        else:
            raise InvalidConfig(f"cannot export audio of type {type(result.audio)!r}")
        soft = None
        if result.soft_target is not None:
            soft = {
                "y_a": result.soft_target.y_a.name,
                "y_b": result.soft_target.y_b.name,
                "lam": result.soft_target.lam,
            }
        rows.append(
            RecordManifest(
                record_id=record_id,
                audio_path=filename,
                dataset=datasets[i] if datasets is not None else "synthetic",
                split="train",
                label_raw=result.label.name,
                label_unified=result.label.name,
                soft_target=soft,
                provenance=asdict(result.provenance),
            )
        )
    return save_manifest(rows, out_dir / "augmented.jsonl")


@contextmanager
def staged(out_dir, owned: re.Pattern):
    """A new directory beside `out_dir` that replaces it once the block
    finishes, and is removed if the block fails.

    `out_dir` may be absent, or hold only `SNAPSHOT` and files whose names
    `owned` matches; any other file is a config error, and nothing is
    deleted. Its manifests (`*.jsonl`) are removed first, so a directory
    holds a manifest only when its last run finished. Stages that killed
    runs left beside it are removed before the new one is made (`_sweep`).
    """
    out_dir = Path(out_dir).resolve()
    if out_dir.exists():
        foreign = sorted(n for n in os.listdir(out_dir) if not (owned.fullmatch(n) or n == SNAPSHOT))
        if foreign:
            raise InvalidConfig(f"{out_dir} holds files this run does not write: {foreign[:3]}")
        for manifest in out_dir.glob("*.jsonl"):
            manifest.unlink()
    _sweep(out_dir)
    stage = out_dir.with_name(f".{out_dir.name}.partial-{os.getpid()}")
    old = out_dir.with_name(f".{out_dir.name}.old-{os.getpid()}")
    stage.mkdir(parents=True)
    try:
        yield stage
        if out_dir.exists():
            out_dir.rename(old)
        stage.rename(out_dir)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def _sweep(out_dir: Path) -> None:
    """Remove each `.<name>.partial-<pid>` and `.<name>.old-<pid>` beside
    `out_dir` whose process no longer runs; no other name is touched, nor a
    pid of more than 9 digits, which no kernel gives and `os.kill` rejects."""
    stage = re.compile(rf"\.{re.escape(out_dir.name)}\.(?:partial|old)-([0-9]{{1,9}})")
    if out_dir.parent.is_dir():
        for path in list(out_dir.parent.iterdir()):
            match = stage.fullmatch(path.name)
            if match and not _running(int(match[1])):
                shutil.rmtree(path, ignore_errors=True)


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's process
        pass
    return True


def pair_records(
    records: list[RecordManifest],
    n_pairs: int,
    pairing: str,
    rng: np.random.Generator,
) -> list[tuple[RecordManifest, RecordManifest]]:
    """Draw mixing pairs from the train split only.

    uniform: any two distinct records; cross-class: unified labels must
    differ (rejection sampled: with two classes present, each draw is
    cross-class with a fixed positive chance, so the loop ends).
    """
    train = [r for r in records if r.split == "train"]
    if len(train) < 2:
        raise InvalidConfig("need at least two train records to form pairs")
    if pairing not in PAIRINGS:
        raise InvalidConfig(f"unknown pairing policy {pairing!r}")
    if pairing == "cross-class":
        labels = {r.label_unified for r in train}
        if len(labels) < 2:
            raise InvalidConfig("cross-class pairing needs at least two classes")
    pairs = []
    while len(pairs) < n_pairs:
        i, j = rng.choice(len(train), size=2, replace=False)
        a, b = train[int(i)], train[int(j)]
        if pairing == "uniform" or a.label_unified != b.label_unified:
            pairs.append((a, b))
    return pairs
