"""Smoke run of scripts/run_synthetic_experiment.py, the library's one
script caller: it must run end to end, print its Se/Sp/Sc table and leave
only the directories it publishes."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"


def test_small_run_prints_the_score_table(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path / "out"),
         "--per-class", "2", "--pairs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["strategy", "Se", "Sp", "Sc"]
    assert [row.split()[0] for row in rows] == ["none", "mixup", "cutmix", "patchmix", "lungmix"]
    for row in rows:
        se, sp, sc = map(float, row.split()[1:])
        assert all(0.0 <= v <= 100.0 for v in (se, sp, sc))
        assert abs((se + sp) / 2 - sc) <= 0.011
    # every directory was published whole, with no stage left beside it
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "aug_cutmix", "aug_lungmix", "aug_mixup", "aug_patchmix", "eval", "train",
    ]
    assert all((out / name / "corpus.jsonl").exists() for name in ("train", "eval"))
