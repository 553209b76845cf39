"""Smoke run of scripts/run_synthetic_experiment.py, the library's one
script caller: it must run end to end, print its Se/Sp/Sc table, leave only
the directories it publishes, write the same bytes at any worker count, and
reject a bad argument before it writes anything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"


def one_core():
    """Pin the calling process to one of the cores this one may use, so the
    script runs a single worker."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_script(*runs):
    """Run the script once per (--out, flags, preexec_fn), all at the same
    time; gives each run's `CompletedProcess`, in order."""
    procs = [
        subprocess.Popen([sys.executable, str(SCRIPT), "--out", str(out), *flags],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         preexec_fn=preexec)
        for out, flags, preexec in runs
    ]
    done = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        done.append(subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr))
    return done


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """"all" and "one" -> (--out, CompletedProcess) of a small run on every
    core this process may use and on one core."""
    pins = {"all": None, "one": one_core}
    outs = {name: tmp_path_factory.mktemp(name) / "out" for name in pins}
    procs = run_script(*((outs[name], ("--per-class", "2", "--pairs", "2"), pin)
                         for name, pin in pins.items()))
    return {name: (outs[name], proc) for name, proc in zip(pins, procs)}


def test_small_run_prints_the_score_table(small_runs):
    out, proc = small_runs["all"]
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["strategy", "Se", "Sp", "Sc"]
    assert [row.split()[0] for row in rows] == ["none", "mixup", "cutmix", "patchmix", "lungmix"]
    for row in rows:
        se, sp, sc = map(float, row.split()[1:])
        assert all(0.0 <= v <= 100.0 for v in (se, sp, sc))
        assert abs((se + sp) / 2 - sc) <= 0.011
    # every directory was published whole, with no stage left beside it
    assert sorted(p.name for p in out.iterdir()) == [
        "aug_cutmix", "aug_lungmix", "aug_mixup", "aug_patchmix", "eval", "train",
    ]
    assert all((out / name / "corpus.jsonl").exists() for name in ("train", "eval"))


def test_output_does_not_depend_on_the_worker_count(small_runs):
    (out1, proc1), (out2, proc2) = small_runs["one"], small_runs["all"]
    assert proc1.returncode == 0, proc1.stderr
    assert proc2.returncode == 0, proc2.stderr
    assert proc1.stdout == proc2.stdout
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*"))
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*"))
    assert files1 == files2
    for rel in files1:
        if (out1 / rel).is_file():
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_bad_arguments_exit_2_before_writing(tmp_path):
    (proc,) = run_script((tmp_path / "out", ("--per-class", "1", "--pairs", "0"), None))
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr) == {"error": "n_pairs must be at least 1, got 0", "category": "config"}
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []
