#!/usr/bin/env python3
"""Synthetic end-to-end comparison of the mixing strategies.

Generates a seeded synthetic train/eval corpus, augments the train split with
each strategy, fits a nearest-centroid classifier on log-mel features
max-pooled over time, and reports Se/Sp/Sc per strategy on the held-out records. Everything derives
from one master seed, so reruns print identical numbers.

Each directory it writes under `--out` (`train`, `eval` and one `aug_<name>`
per strategy) is published through `lungmix.dataset.staged`: written into a
new directory beside it and renamed into place only once complete, so an
interrupted run leaves no manifest that looks finished.

Per-record work runs on one pool, a thread per core the process may use (its CPU
affinity, at most `lungmix.augment.MAX_WORKERS`; `taskset -c 0` gives one):
`train` and `eval` are synthesised concurrently, each record's features are
computed on the pool, and every strategy augments with that many workers.
Each record's noise stream descends from the seed and its id, so the printed
table and every file under `--out` are the same bytes at any worker count.
Every plan is built before the first directory is published, so a bad
argument writes nothing: like the `lungmix` command, a `LungmixError` prints
one JSON line on stderr and exits 2 (config), 3 (data) or 4 (I/O, as does an
`OSError`).

`main` first calls `lungmix.parallel.claim_process`, before the pool starts,
so every thread allocates from glibc's main heap, where each record's
multi-MB filter and log-mel buffers stay instead of being page-faulted in
again for the next record.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lungmix.audio_io import read_spectrogram, read_wav
from lungmix.augment import MAX_WORKERS, AugmentPlan, augment_corpus
from lungmix.cli import REPORTED, report
from lungmix.dataset import AUGMENT_FILES, load_manifest, resolve_audio_path, staged
from lungmix.metrics import score
from lungmix.parallel import claim_process
from lungmix.pipeline import PipelineConfig, preprocess
from lungmix.rng import derive_rng
from lungmix.synth import CORPUS_FILES, CorpusPlan, make_corpus

STRATEGIES = [
    ("none", None, None),
    ("mixup", "mixup", "linear"),
    ("cutmix", "cutmix", "nonlinear"),
    ("patchmix", "patchmix", "preserve"),
    ("lungmix", "lungmix", "nonlinear"),
]


def publish(out_dir, owned, write):
    """`write` into a stage that replaces `out_dir` once it returns; gives the
    path, under `out_dir`, of the manifest it wrote."""
    with staged(out_dir, owned) as stage:
        name = write(stage).name
    return out_dir / name


def features(record, manifest_path, cfg, seed):
    """128-dim log-mel vector for a manifest record (WAV or .spec).

    Max-pooled over time so sparse transients register despite the 9 s span.
    """
    path = resolve_audio_path(record, manifest_path)
    if path.suffix == ".spec":
        bins = read_spectrogram(path)
    else:
        wave = read_wav(path)
        bins = preprocess(wave, cfg, derive_rng(seed, record.record_id))[1].bins
    return bins.max(axis=1)


def centroid_classifier(train_feats, train_labels):
    classes = sorted(set(train_labels))
    centroids = {
        cls: np.mean([f for f, l in zip(train_feats, train_labels) if l == cls], axis=0)
        for cls in classes
    }

    def predict(feat):
        return min(classes, key=lambda cls: np.linalg.norm(feat - centroids[cls]))

    return predict


def usable_cores():
    """The cores this process may run on, at most `MAX_WORKERS`."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(cores, MAX_WORKERS)


def run(args):
    out = Path(args.out)
    workers = usable_cores()
    cfg = PipelineConfig()
    corpus = CorpusPlan(per_class=args.per_class)
    plans = {
        name: AugmentPlan(
            strategy=strategy,
            interpolation=mode,
            n_pairs=args.pairs,
            pairing="cross-class",
            workers=workers,
        )
        for name, strategy, mode in STRATEGIES
        if strategy is not None
    }

    with ThreadPoolExecutor(max_workers=workers) as pool:

        def load(manifest_path):
            """The manifest's records and, in their order, their features."""
            records = load_manifest(manifest_path)
            return records, list(pool.map(lambda r: features(r, manifest_path, cfg, args.seed), records))

        def synthesise(split, seed):
            return publish(out / split, CORPUS_FILES, lambda d: make_corpus(d, corpus, seed))

        train_manifest, eval_manifest = pool.map(synthesise, ("train", "eval"), (args.seed, args.seed + 1))
        held_out, eval_feats = load(eval_manifest)
        train, base_feats = load(train_manifest)
        base_labels = [r.label_unified for r in train]

        print(f"{'strategy':>10} {'Se':>7} {'Sp':>7} {'Sc':>7}")
        for name, _, _ in STRATEGIES:
            feats, labels = list(base_feats), list(base_labels)
            if name in plans:
                aug_manifest = publish(
                    out / f"aug_{name}", AUGMENT_FILES,
                    lambda d: augment_corpus(train, train_manifest, d, plans[name], cfg, args.seed),
                )
                augmented, aug_feats = load(aug_manifest)
                feats += aug_feats
                labels += [rec.label_unified for rec in augmented]
            predict = centroid_classifier(feats, labels)
            pairs = [(r.label_unified, predict(f)) for r, f in zip(held_out, eval_feats)]
            report = score(pairs)
            fmt = lambda v: "  n/a" if v is None else f"{v:7.2f}"
            print(f"{name:>10} {fmt(report.se)} {fmt(report.sp)} {fmt(report.sc)}")


def main():
    claim_process()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiment_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-class", type=int, default=6)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args()
    try:
        run(args)
    except REPORTED as exc:
        sys.exit(report(exc))


if __name__ == "__main__":
    main()
