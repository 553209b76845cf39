"""Command-line entry point: preprocess / augment / synth / eval / inspect-mask.

Every run descends from one master seed; flags override values from an
optional JSON config file, and the resolved configuration is snapshotted next
to the outputs of any command that writes artifacts.

Exit codes: 0 ok, 2 config error, 3 data error, 4 I/O error.
"""

import argparse
import csv
import filecmp
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .audio_io import read_wav, write_spectrogram, write_spectrogram_csv, write_wav
from .augment import AugmentPlan, augment_corpus
from .dataset import AUGMENT_FILES, PAIRINGS, SNAPSHOT, align_records, load_label_maps, load_manifest
from .dataset import read_json, read_jsonl, staged
from .errors import InvalidConfig, LungmixError, ParseError, check_value
from .labels import FOUR_CLASS, MODES
from .masks import SEMANTICS, MixParams
from .metrics import score
from .mixing import STRATEGIES, MixRequest, lungmix_trace
from .parallel import claim_process
from .pipeline import PipelineConfig, preprocess
from .synth import CORPUS_FILES, CorpusPlan, make_corpus
from .rng import derive_rng

EXIT_CODES = {"config": 2, "data": 3, "io": 4}


def _section(config: dict, name: str, cls, args):
    """`cls` built from the config file's `name` section, overlaid with every
    flag given on the command line whose dest is a field of `cls`; `cls`
    checks the values."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise InvalidConfig(f"config section {name!r} must be a JSON object")
    names = {f.name for f in fields(cls)}
    unknown = section.keys() - names
    if unknown:
        raise InvalidConfig(f"bad {name} config: unknown keys {sorted(unknown)}")
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return cls(**{**section, **flags})


def _configure(args, **classes) -> tuple[int, dict]:
    """The run's master seed and one config object per section, built from
    --config and the flags. Every value is checked here, before any output
    exists; the config may hold only `command`, `master_seed` and the
    sections of `args.command`."""
    config = {} if args.config is None else read_json(args.config, "config file")
    unknown = config.keys() - {"command", "master_seed", *classes}
    if unknown:
        raise InvalidConfig(f"unknown config keys for {args.command}: {sorted(unknown)}")
    if config.get("command", args.command) != args.command:
        raise InvalidConfig(f"config is for command {config['command']!r}, not {args.command!r}")
    seed = config.get("master_seed", 0) if args.master_seed is None else args.master_seed
    check_value("master_seed", int, seed)
    return seed, {name: _section(config, name, cls, args) for name, cls in classes.items()}


def _snapshot(command: str, seed: int, **sections) -> bytes:
    """The run's resolved config, itself a --config that replays the run."""
    snapshot = {"command": command, "master_seed": seed}
    snapshot.update((name, asdict(cfg)) for name, cfg in sections.items())
    return (json.dumps(snapshot, indent=2, sort_keys=True) + "\n").encode()


def _publish_beside(out_dir: Path, writers: dict) -> None:
    """Each `name: write(path)` written to a temporary name in `out_dir`, then
    moved onto `name` with `os.replace`. A `name` that `out_dir` already holds
    with other bytes is a config error: the temporaries are removed and no
    file is replaced."""
    temps = {name: out_dir / f".{name}.{os.getpid()}.tmp" for name in writers}
    try:
        for name, write in writers.items():
            write(temps[name])
            held = out_dir / name
            if held.exists() and not filecmp.cmp(temps[name], held, shallow=False):
                raise InvalidConfig(f"{held} holds another run's output: use another --out")
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise
    for name, temp in temps.items():
        os.replace(temp, out_dir / name)


def cmd_preprocess(args) -> int:
    seed, sections = _configure(args, pipeline=PipelineConfig)
    out_dir, snapshot = Path(args.out), _snapshot(args.command, seed, **sections)
    # runs share --out only at one config, so its one snapshot replays every file
    if (out_dir / SNAPSHOT).exists() and (out_dir / SNAPSHOT).read_bytes() != snapshot:
        raise InvalidConfig(f"{out_dir / SNAPSHOT} holds another seed or config: use another --out")
    wave = read_wav(args.infile)
    processed, spec = preprocess(wave, sections["pipeline"], derive_rng(seed, "preprocess"))
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.infile).stem
    # outputs are named by the input's stem alone, so another input of that
    # name must not replace them
    writers = {
        f"{stem}_preprocessed.wav": lambda path: write_wav(path, processed),
        f"{stem}.spec": lambda path: write_spectrogram(path, spec),
        SNAPSHOT: lambda path: path.write_bytes(snapshot),
    }
    if args.csv:
        writers[f"{stem}.csv"] = lambda path: write_spectrogram_csv(path, spec)
    _publish_beside(out_dir, writers)
    print(f"wrote {stem}_preprocessed.wav and {stem}.spec to {out_dir}")
    return 0


def cmd_augment(args) -> int:
    seed, sections = _configure(args, augment=AugmentPlan, pipeline=PipelineConfig)
    plan, pipeline_cfg = sections.values()
    maps = load_label_maps(args.label_maps) if args.label_maps else None
    records = load_manifest(args.manifest)
    records = align_records(records, maps=maps)
    out_dir = Path(args.out)
    with staged(out_dir, AUGMENT_FILES) as stage:
        manifest = augment_corpus(records, args.manifest, stage, plan, pipeline_cfg, seed)
        (stage / SNAPSHOT).write_bytes(_snapshot(args.command, seed, **sections))
    print(f"wrote {plan.n_pairs} augmented records, manifest at {out_dir / manifest.name}")
    return 0


def cmd_synth(args) -> int:
    seed, sections = _configure(args, synth=CorpusPlan)
    out_dir = Path(args.out)
    with staged(out_dir, CORPUS_FILES) as stage:
        manifest = make_corpus(stage, sections["synth"], seed)
        (stage / SNAPSHOT).write_bytes(_snapshot(args.command, seed, **sections))
    print(f"wrote synthetic corpus manifest at {out_dir / manifest.name}")
    return 0


def _prediction(row) -> tuple[str, str]:
    """The (true, predicted) classes of one predictions row."""
    pair = (row["true"], row["predicted"])
    if not set(pair) <= set(FOUR_CLASS.categories()):
        raise ParseError(f"unknown class in {pair}")
    return pair


def cmd_eval(args) -> int:
    report = score([pair for _, pair in read_jsonl(args.predictions, _prediction)])
    print(report.format_table())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_inspect_mask(args) -> int:
    audio_a = read_wav(args.file_a)
    audio_b = read_wav(args.file_b)
    params = _section({}, "inspect-mask", MixParams, args)
    normal = FOUR_CLASS.vector("normal")
    req = MixRequest(audio_a, normal, audio_b, normal, params, strategy="lungmix")
    trace = lungmix_trace(req)
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(["sample_index", "m_i", "m_j", "r", "combined"])
        writer.writerows(
            zip(
                range(len(trace.mask)),
                trace.mask_a.astype(int).tolist(),
                trace.mask_b.astype(int).tolist(),
                trace.rand.astype(int).tolist(),
                trace.mask.values.tolist(),
            )
        )
    finally:
        if args.out:
            sink.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lungmix", description="Deterministic respiratory-sound augmentation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # preprocess, augment and synth: the config file and the master seed
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--seed", dest="master_seed", type=int)
    # augment and inspect-mask: the MixParams fields
    mixing = argparse.ArgumentParser(add_help=False)
    mixing.add_argument("--alpha", type=float)
    mixing.add_argument("--lam", type=float)
    mixing.add_argument("--density", dest="random_density", type=float)
    mixing.add_argument("--semantics", choices=SEMANTICS)

    p = sub.add_parser("preprocess", parents=[common], help="resample, filter, fit, mel")
    p.add_argument("--in", dest="infile", required=True, help="input WAV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--csv", action="store_true", help="also write the spectrogram as CSV")
    p.add_argument("--target-rate", type=int)
    p.add_argument("--band-low", type=float)
    p.add_argument("--band-high", type=float)
    p.add_argument("--clip-seconds", type=float)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("augment", parents=[common, mixing], help="mix pairs from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--mode", dest="interpolation", choices=MODES)
    p.add_argument("--pairs", dest="n_pairs", type=int)
    p.add_argument("--pairing", choices=PAIRINGS)
    p.add_argument("--workers", type=int)
    p.add_argument(
        "--no-roll", dest="apply_roll", action="store_false", default=None,
        help="skip the pre-mix shift/roll",
    )
    p.add_argument("--label-maps", help="JSON file overriding the shipped label maps")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("synth", parents=[common], help="generate the synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=int)
    p.add_argument("--duration", dest="duration_s", type=float)
    p.add_argument("--sample-rate", type=int)
    p.add_argument("--n-events", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score a predictions JSONL")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-mask", parents=[mixing], help="dump mix masks as CSV")
    p.add_argument("--a", dest="file_a", required=True)
    p.add_argument("--b", dest="file_b", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_inspect_mask)

    return parser


REPORTED = (LungmixError, OSError, MemoryError)


def report(exc) -> int:
    """Print one of the `REPORTED` errors as a JSON line on stderr; gives its
    exit code. An `OSError` or `MemoryError` counts as `io`."""
    category = exc.category if isinstance(exc, LungmixError) else "io"
    print(json.dumps({"error": str(exc), "category": category}), file=sys.stderr)
    return EXIT_CODES.get(category, 3)


def main(argv=None) -> int:
    claim_process()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except REPORTED as exc:
        return report(exc)


if __name__ == "__main__":
    sys.exit(main())
