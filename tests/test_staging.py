"""`dataset.staged`, through `augment` and `synth` in their own processes: a
run killed partway leaves no directory that looks complete, and the next run
removes the stage it left, and only stages whose process is gone."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lungmix.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
PID_MAX = Path("/proc/sys/kernel/pid_max")
# a pid no process has: above the kernel's limit (2**22, Linux's largest, where unreadable)
DEAD_PID = (int(PID_MAX.read_text()) if PID_MAX.exists() else 2**22) + 1
MANIFEST = {"augment": "augmented.jsonl", "synth": "corpus.jsonl"}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("staging") / "corpus"
    assert main(["synth", "--out", str(out), "--duration", "1", "--n-events", "1"]) == 0
    return out


def argv(command, corpus, out, *flags):
    """A small `command` run into `out`; `flags` override its sizes."""
    small = {
        "augment": ["--manifest", str(corpus / "corpus.jsonl"), "--pairs", "2"],
        "synth": ["--duration", "1", "--n-events", "1"],
    }
    return [command, *small[command], "--out", str(out), *flags]


def cli_process(args, **kwargs):
    """`python -m lungmix.cli` with `args`, in a new process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-m", "lungmix.cli", *args], env=env, **kwargs)


def names(directory):
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("command", ["augment", "synth"])
def test_next_run_sweeps_only_stages_whose_process_is_gone(corpus, tmp_path, command):
    dead = [f".o.partial-{DEAD_PID}", f".o.old-{DEAD_PID}"]
    # this process runs; the rest are not stages of `o`
    kept = [f".o.partial-{os.getpid()}", f".p.partial-{DEAD_PID}", f".o.partial-{DEAD_PID}x", "o.partial-1"]
    for name in dead + kept:
        (tmp_path / name).mkdir()
        (tmp_path / name / "aug-00000.wav").write_bytes(b"")
    proc = cli_process(argv(command, corpus, tmp_path / "o"), stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert names(tmp_path) == sorted(["o", *kept])


@pytest.mark.parametrize(
    ("command", "flags"), [("augment", ["--pairs", "100000"]), ("synth", ["--per-class", "500"])]
)
def test_killed_rerun_leaves_no_manifest_and_its_stage_is_swept(corpus, tmp_path, command, flags):
    out = tmp_path / "o"
    assert main(argv(command, corpus, out)) == 0
    proc = cli_process(argv(command, corpus, out, *flags), stderr=subprocess.DEVNULL)
    stage = tmp_path / f".o.partial-{proc.pid}"
    try:
        deadline = time.monotonic() + 60
        while not stage.exists():
            assert proc.poll() is None, "the run ended before its stage was seen"
            assert time.monotonic() < deadline
            time.sleep(0.002)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    assert names(tmp_path) == sorted(["o", stage.name])
    assert not (out / MANIFEST[command]).exists()
    assert main(argv(command, corpus, out)) == 0
    assert names(tmp_path) == ["o"]
    assert (out / MANIFEST[command]).exists()
