#!/usr/bin/env python3
"""Synthetic end-to-end comparison of the mixing strategies.

Generates a seeded synthetic train/eval corpus, augments the train split with
each strategy, fits a nearest-centroid classifier on log-mel features
max-pooled over time, and reports Se/Sp/Sc per strategy on the held-out records. Everything derives
from one master seed, so reruns print identical numbers.

`main` first calls `lungmix.parallel.claim_process`, so OpenBLAS keeps to
one thread and each record's multi-MB filter and log-mel buffers stay in
glibc's main heap, which the augment worker shares, instead of being
page-faulted in again for the next record. It runs on one core: features are
computed in the main thread, and augmentation uses one worker.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lungmix.audio_io import read_spectrogram, read_wav
from lungmix.augment import AugmentPlan, augment_corpus
from lungmix.dataset import load_manifest, resolve_audio_path
from lungmix.metrics import score
from lungmix.parallel import claim_process
from lungmix.pipeline import PipelineConfig, preprocess
from lungmix.rng import derive_rng
from lungmix.synth import CorpusPlan, make_corpus

STRATEGIES = [
    ("none", None, None),
    ("mixup", "mixup", "linear"),
    ("cutmix", "cutmix", "nonlinear"),
    ("patchmix", "patchmix", "preserve"),
    ("lungmix", "lungmix", "nonlinear"),
]


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


def main():
    claim_process()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiment_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-class", type=int, default=6)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args()

    out = Path(args.out)
    cfg = PipelineConfig()

    corpus = CorpusPlan(per_class=args.per_class)
    train_manifest = make_corpus(out / "train", corpus, args.seed)
    eval_manifest = make_corpus(out / "eval", corpus, args.seed + 1)
    train = load_manifest(train_manifest)
    held_out = load_manifest(eval_manifest)

    eval_feats = [features(r, eval_manifest, cfg, args.seed) for r in held_out]
    base_feats = [features(r, train_manifest, cfg, args.seed) for r in train]
    base_labels = [r.label_unified for r in train]

    print(f"{'strategy':>10} {'Se':>7} {'Sp':>7} {'Sc':>7}")
    for name, strategy, mode in STRATEGIES:
        feats, labels = list(base_feats), list(base_labels)
        if strategy is not None:
            plan = AugmentPlan(
                strategy=strategy,
                interpolation=mode,
                n_pairs=args.pairs,
                pairing="cross-class",
            )
            aug_manifest = augment_corpus(
                train, train_manifest, out / f"aug_{name}", plan, cfg, args.seed
            )
            augmented = load_manifest(aug_manifest)
            feats += [features(r, aug_manifest, cfg, args.seed) for r in augmented]
            labels += [rec.label_unified for rec in augmented]
        predict = centroid_classifier(feats, labels)
        pairs = [(r.label_unified, predict(f)) for r, f in zip(held_out, eval_feats)]
        report = score(pairs)
        fmt = lambda v: "  n/a" if v is None else f"{v:7.2f}"
        print(f"{name:>10} {fmt(report.se)} {fmt(report.sp)} {fmt(report.sc)}")


if __name__ == "__main__":
    main()
