"""End-to-end CLI runs: subcommands, exit codes, run-to-run determinism."""

import argparse
import hashlib
import importlib
import io
import json
import shutil
from contextlib import redirect_stderr
from dataclasses import fields

import numpy as np
import pytest
from scipy.io import wavfile

from lungmix import cli
from lungmix.audio_io import read_spectrogram, read_wav, write_wav
from lungmix.augment import AugmentPlan
from lungmix.cli import EXIT_CODES, build_parser, main
from lungmix.dataset import load_manifest
from lungmix.errors import InvalidConfig, LungmixError, NumericalError
from lungmix.masks import MixParams
from lungmix.pipeline import PipelineConfig, Spectrogram, Waveform
from lungmix.synth import CorpusPlan

synth = importlib.import_module("lungmix.synth")  # the package's `synth` is the function


def run_digest(out_dir):
    """SHA-256 over all WAVs and manifests in a run directory."""
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("*")):
        if p.suffix in (".wav", ".jsonl", ".spec"):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    assert main(["synth", "--out", str(out), "--per-class", "1", "--seed", "3"]) == 0
    return out


class TestSynthCommand:
    def test_produces_wavs_and_manifest(self, corpus):
        assert (corpus / "corpus.jsonl").exists()
        assert len(list(corpus.glob("*.wav"))) == 4
        assert (corpus / "config_snapshot.json").exists()

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out", str(a), "--seed", "5"])
        main(["synth", "--out", str(b), "--seed", "5"])
        assert run_digest(a) == run_digest(b)


class TestAugmentCommand:
    def test_writes_requested_records(self, corpus, tmp_path):
        out = tmp_path / "aug"
        rc = main([
            "augment", "--manifest", str(corpus / "corpus.jsonl"), "--out", str(out),
            "--strategy", "lungmix", "--mode", "nonlinear", "--alpha", "1.0",
            "--seed", "7", "--pairs", "10",
        ])
        assert rc == 0
        assert len(list(out.glob("*.wav"))) == 10
        rows = [json.loads(l) for l in (out / "augmented.jsonl").read_text().splitlines()]
        assert len(rows) == 10
        assert all(r["provenance"]["strategy"] == "lungmix" for r in rows)

    def test_parallelism_does_not_change_outputs(self, corpus, tmp_path):
        digests = []
        for i, workers in enumerate(("1", "3")):
            out = tmp_path / f"aug{i}"
            rc = main([
                "augment", "--manifest", str(corpus / "corpus.jsonl"), "--out", str(out),
                "--strategy", "lungmix", "--mode", "nonlinear", "--seed", "7",
                "--pairs", "8", "--workers", workers,
            ])
            assert rc == 0
            digests.append(run_digest(out))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("strategy", ["mixup", "cutmix"])
    def test_other_waveform_strategies(self, corpus, tmp_path, strategy):
        out = tmp_path / strategy
        rc = main([
            "augment", "--manifest", str(corpus / "corpus.jsonl"), "--out", str(out),
            "--strategy", strategy, "--mode", "linear", "--seed", "9", "--pairs", "3",
        ])
        assert rc == 0
        rows = [json.loads(l) for l in (out / "augmented.jsonl").read_text().splitlines()]
        if strategy == "mixup":
            assert all("soft_target" in r for r in rows)

    def test_patchmix_emits_spectrograms(self, corpus, tmp_path):
        out = tmp_path / "pm"
        rc = main([
            "augment", "--manifest", str(corpus / "corpus.jsonl"), "--out", str(out),
            "--strategy", "patchmix", "--mode", "preserve", "--seed", "11", "--pairs", "2",
        ])
        assert rc == 0
        specs = list(out.glob("*.spec"))
        assert len(specs) == 2
        assert read_spectrogram(specs[0]).shape == (128, 1024)

    def test_cross_class_pairing(self, corpus, tmp_path):
        out = tmp_path / "cc"
        rc = main([
            "augment", "--manifest", str(corpus / "corpus.jsonl"), "--out", str(out),
            "--strategy", "lungmix", "--mode", "nonlinear", "--seed", "13",
            "--pairs", "5", "--pairing", "cross-class",
        ])
        assert rc == 0
        rows = [json.loads(l) for l in (out / "augmented.jsonl").read_text().splitlines()]
        for row in rows:
            assert row["provenance"]["source_a"] != row["provenance"]["source_b"]


class TestPreprocessCommand:
    def test_long_high_rate_input(self, tmp_path, rng):
        wav_in = tmp_path / "in.wav"
        write_wav(wav_in, Waveform(rng.uniform(-0.5, 0.5, 12 * 44100), 44100))
        out = tmp_path / "prep"
        rc = main(["preprocess", "--in", str(wav_in), "--out", str(out), "--csv"])
        assert rc == 0
        processed = read_wav(out / "in_preprocessed.wav")
        assert processed.sample_rate == 16000
        assert len(processed) == 144000
        assert read_spectrogram(out / "in.spec").shape == (128, 1024)
        assert (out / "in.csv").exists()
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert snapshot["pipeline"]["target_rate"] == 16000


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path, rng):
        wav_in = tmp_path / "in.wav"
        write_wav(wav_in, Waveform(rng.uniform(-0.5, 0.5, 3 * 22050), 22050))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"pipeline": {"clip_seconds": 4.0}, "master_seed": 11}))

        out = tmp_path / "o1"
        assert main(["preprocess", "--in", str(wav_in), "--out", str(out), "--config", str(cfg)]) == 0
        snap = json.loads((out / "config_snapshot.json").read_text())
        assert snap["pipeline"]["clip_seconds"] == 4.0
        assert snap["master_seed"] == 11
        assert len(read_wav(out / "in_preprocessed.wav")) == 4 * 16000

        out = tmp_path / "o2"
        assert main([
            "preprocess", "--in", str(wav_in), "--out", str(out),
            "--config", str(cfg), "--clip-seconds", "2.0",
        ]) == 0
        snap = json.loads((out / "config_snapshot.json").read_text())
        assert snap["pipeline"]["clip_seconds"] == 2.0

    def test_invalid_config_file_is_config_error(self, tmp_path, rng):
        wav_in = tmp_path / "in.wav"
        write_wav(wav_in, Waveform(rng.uniform(-0.5, 0.5, 8000), 16000))
        cfg = tmp_path / "run.json"
        cfg.write_text("{broken")
        rc = main(["preprocess", "--in", str(wav_in), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2


class TestEvalCommand:
    def test_perfect_predictions_score_100(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        with open(preds, "w") as fh:
            for cls in ("normal", "crackle", "wheeze", "both"):
                fh.write(json.dumps({"record_id": cls, "true": cls, "predicted": cls}) + "\n")
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--predictions", str(preds), "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["sc"] == 100.0
        assert "Sc=100.00" in capsys.readouterr().out.replace(" ", "")


class TestInspectMaskCommand:
    def test_csv_columns(self, corpus, tmp_path):
        out = tmp_path / "mask.csv"
        rc = main([
            "inspect-mask",
            "--a", str(corpus / "synth-crackle-000.wav"),
            "--b", str(corpus / "synth-wheeze-000.wav"),
            "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_index,m_i,m_j,r,combined"
        assert len(lines) == 1 + 9 * 16000


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, rng):
        wav_in = tmp_path / "in.wav"
        write_wav(wav_in, Waveform(rng.uniform(-0.5, 0.5, 8000), 16000))
        rc = main([
            "preprocess", "--in", str(wav_in), "--out", str(tmp_path / "o"),
            "--band-low", "2000", "--band-high", "100",
        ])
        assert rc == 2

    def test_data_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        rc = main([
            "augment", "--manifest", str(bad), "--out", str(tmp_path / "o"),
            "--strategy", "lungmix", "--pairs", "1",
        ])
        assert rc == 3

    def test_stereo_wav_in_manifest_is_data_error_3(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--per-class", "1", "--seed", "3"]) == 0
        for wav in corpus.glob("*.wav"):
            stereo = np.stack([read_wav(wav).samples] * 2, axis=1).astype(np.float32)
            wavfile.write(wav, 16000, stereo)
        rc = main([
            "augment", "--manifest", str(corpus / "corpus.jsonl"),
            "--out", str(tmp_path / "o"), "--strategy", "lungmix", "--pairs", "2",
        ])
        assert rc == 3

    def test_io_error_is_4(self, tmp_path):
        rc = main([
            "augment", "--manifest", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "o"), "--strategy", "lungmix", "--pairs", "1",
        ])
        assert rc == 4

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# the input each command that writes artifacts reads from the shared corpus
INPUTS = {
    "preprocess": lambda corpus: ["--in", str(corpus / "synth-both-000.wav")],
    "augment": lambda corpus: ["--manifest", str(corpus / "corpus.jsonl")],
    "synth": lambda corpus: [],
}


def run_command(command, corpus, out, *flags, config=None):
    """`command` on the shared corpus, with flags and, written to a file, config."""
    argv = [command, *INPUTS[command](corpus), "--out", str(out), *flags]
    if config is not None:
        path = out.parent / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return main(argv)


def augment_lungmix(corpus, out, *flags, config=None):
    """`augment` at its default strategy, lungmix, unless config or flags say otherwise."""
    return run_command("augment", corpus, out, "--pairs", "2", "--seed", "7", *flags, config=config)


def config_error(*flags, config=None, command="augment"):
    """A run with a bad value: gives its exit code and whether --out exists."""

    def run(corpus, tmp_path):
        out = tmp_path / "o"
        return run_command(command, corpus, out, *flags, config=config), out.exists()

    return run


def bad_label_maps(text):
    """An augment run given a --label-maps file holding `text`."""

    def run(corpus, tmp_path):
        maps = tmp_path / "maps.json"
        maps.write_text(text)
        return config_error("--label-maps", str(maps))(corpus, tmp_path)

    return run


def eval_second_line(line: bytes):
    """eval on predictions whose second line is `line`: gives the exit code,
    whether the error names that line, and whether --out exists."""

    def run(corpus, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_bytes(b'{"true": "normal", "predicted": "normal"}\n' + line + b"\n")
        err = io.StringIO()
        with redirect_stderr(err):
            rc = main(["eval", "--predictions", str(preds), "--out", str(tmp_path / "o")])
        return rc, err.getvalue().count(f"{preds}:2:") == 1, (tmp_path / "o").exists()

    return run


def non_utf8_file(flag, command="augment"):
    """A run given `flag` naming a JSON file that holds a byte that is not UTF-8."""

    def run(corpus, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"\xff": 1}')
        return config_error(flag, str(bad), command=command)(corpus, tmp_path)

    return run


def file_flag_names(target, flag, command="augment"):
    """A run whose `flag` names an `"absent"` file or a `"directory"`."""

    def run(corpus, tmp_path):
        path = tmp_path / "named.json"
        if target == "directory":
            path.mkdir()
        return config_error(flag, str(path), command=command)(corpus, tmp_path)

    return run


def absent_input(command, flag, *others):
    """`command` whose input `flag` names an absent file, and each flag of
    `others` a WAV of the corpus: gives the exit code."""

    def run(corpus, tmp_path):
        argv = [command, flag, str(tmp_path / "absent")]
        for other in others:
            argv += [other, str(corpus / "synth-both-000.wav")]
        return main(argv)

    return run


def preprocess_at_another_config(corpus, tmp_path):
    """A second preprocess into one --out at another seed and clip length:
    gives its exit code and whether the first run's files are unchanged."""
    out = tmp_path / "o"
    assert run_command("preprocess", corpus, out, "--seed", "1") == 0
    before = files(out)
    wheeze = ["--in", str(corpus / "synth-wheeze-000.wav")]
    rc = main(["preprocess", *wheeze, "--out", str(out), "--seed", "2", "--clip-seconds", "4"])
    return rc, files(out) == before


def preprocess_same_stem(corpus, tmp_path):
    """A preprocess into one --out, at the same seed and config, of another
    input with the first's file name, after an identical rerun has succeeded:
    gives its exit code and whether the first run's files are unchanged, with
    nothing left beside them."""
    out = tmp_path / "o"
    for _ in range(2):
        assert run_command("preprocess", corpus, out, "--csv") == 0
    before = files(out)
    other = tmp_path / "b" / "synth-both-000.wav"
    other.parent.mkdir()
    other.write_bytes((corpus / "synth-wheeze-000.wav").read_bytes())
    rc = main(["preprocess", "--in", str(other), "--out", str(out), "--csv"])
    return rc, files(out) == before


def config_file_given(command, *argv):
    """`command` given --config, which it does not read: gives the exit code.

    The parser rejects the flag before any input is opened."""

    def run(corpus, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--out", str(tmp_path / "o"), "--config", str(cfg)])
        return exc.value.code

    return run


def output_rates_at_8khz(corpus, tmp_path):
    out = tmp_path / "o"
    rc = augment_lungmix(corpus, out, config={"pipeline": {"target_rate": 8000}})
    return rc, {wavfile.read(wav)[0] for wav in out.glob("*.wav")}


def make_stereo(wav):
    wavfile.write(wav, 16000, np.stack([read_wav(wav).samples] * 2, axis=1).astype(np.float32))


def failed_rerun(corpus, tmp_path):
    """A rerun into a finished run's directory that fails partway through."""
    out = tmp_path / "o"
    assert augment_lungmix(corpus, out) == 0
    broken = tmp_path / "broken"
    shutil.copytree(corpus, broken)
    make_stereo(broken / "synth-wheeze-000.wav")
    rc = augment_lungmix(broken, out, "--pairs", "8", "--seed", "8")
    return rc, (out / "augmented.jsonl").exists()


def failed_midway(corpus, tmp_path):
    """A first run whose 13th pair meets a stereo record: gives the exit code,
    what is left beside the corpus and every aug-* file anywhere."""
    broken = tmp_path / "broken"
    plan = ["--per-class", "2", "--duration", "2", "--n-events", "2"]
    assert main(["synth", "--out", str(broken), *plan]) == 0
    make_stereo(broken / "synth-wheeze-001.wav")
    rc = augment_lungmix(broken, tmp_path / "o", "--pairs", "40", "--seed", "1")
    left = sorted(p.name for p in tmp_path.iterdir())
    return rc, left, sorted(p.name for p in tmp_path.rglob("aug-*"))


def broken_copy(edit):
    """augment over a copy of the corpus that `edit` has damaged: gives the exit
    code, whether the error names the damaged manifest line or WAV, and
    whether --out exists."""

    def run(corpus, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(corpus, broken)
        where = edit(broken)
        err = io.StringIO()
        with redirect_stderr(err):
            rc = augment_lungmix(broken, tmp_path / "o")
        return rc, err.getvalue().count(where) == 1, (tmp_path / "o").exists()

    return run


def manifest_line(edit):
    """Replace the manifest's second line by `edit` of the record it holds, as
    JSON, or by `edit`'s bytes as they are."""

    def damage(broken):
        manifest = broken / "corpus.jsonl"
        lines = manifest.read_bytes().splitlines()
        line = edit(json.loads(lines[1]))
        lines[1] = line if isinstance(line, bytes) else json.dumps(line).encode()
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        return f"{manifest}:2:"

    return broken_copy(damage)


LONG_INT = b"1" + b"0" * 4999  # more digits than Python reads as an int by default


def huge_fmt_chunk(broken):
    """Every WAV's `fmt ` chunk claims 0x7ffffff0 bytes."""
    for wav in broken.glob("*.wav"):
        raw = bytearray(wav.read_bytes())
        raw[16:20] = (0x7FFFFFF0).to_bytes(4, "little")
        wav.write_bytes(bytes(raw))
    return "cannot read WAV"


def zero_rate(broken):
    """One WAV's sample-rate and byte-rate header fields are zeroed."""
    wav = sorted(broken.glob("*.wav"))[0]
    raw = bytearray(wav.read_bytes())
    raw[24:32] = bytes(8)
    wav.write_bytes(bytes(raw))
    return str(wav)


def foreign_file_in_out(command, *flags):
    """A `command` run whose --out holds a file it does not write: gives the
    exit code and what --out holds afterwards."""

    def run(corpus, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        rc = run_command(command, corpus, out, *flags)
        return rc, sorted(p.name for p in out.iterdir())

    return run


def synth_failing_write(rerun):
    """A seed-5 synth whose third WAV write raises OSError, into a finished
    seed-0 corpus if `rerun`, else into nothing: gives the exit code, what
    is left beside the corpus, and whether --out holds exactly the seed-0
    files but the manifest (or nothing at all on a first run)."""

    def run(corpus, tmp_path):
        out = tmp_path / "o"
        plan = ["--per-class", "1", "--duration", "1", "--n-events", "1"]
        before = {}
        if rerun:
            assert run_command("synth", corpus, out, *plan, "--seed", "0") == 0
            before = files(out)
            del before["corpus.jsonl"]
        real, writes = synth.write_wav, []

        def failing_write(*args):
            writes.append(args)
            if len(writes) == 3:
                raise OSError("no space left on device")
            real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synth, "write_wav", failing_write)
            rc = run_command("synth", corpus, out, *plan, "--seed", "5")
        left = files(out) if out.exists() else {}
        return rc, sorted(p.name for p in tmp_path.iterdir()), left == before

    return run


def preprocess_fails(corpus, tmp_path):
    """A preprocess run whose computation fails: gives the exit code and
    whether --out exists."""
    out = tmp_path / "o"

    def failing(*args):
        raise NumericalError("spectrogram contains NaN or Inf")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "preprocess", failing)
        return run_command("preprocess", corpus, out), out.exists()


def nan_spectrogram(corpus, tmp_path):
    try:
        Spectrogram(np.full((2, 2), np.nan))
    except LungmixError as exc:
        return type(exc).__name__, EXIT_CODES[exc.category]


# (what a run does, what it must give): one row per fault that used to
# escape its exit category or leave misleading outputs
FAULTS = [
    pytest.param(
        config_error("--duration", "3", "--sample-rate", "2000", command="synth"), (2, False),
        id="synth-rate-below-bandpass",
    ),
    pytest.param(
        config_error(config={"pipeline": {"bogus": 1}}), (2, False), id="unknown-pipeline-key"
    ),
    pytest.param(
        config_error(config={"pipeline": {"pad_mode": "zeros"}}), (2, False),
        id="removed-pipeline-key",
    ),
    pytest.param(
        config_error(config={"augment": {"target_rate": 16000}}), (2, False),
        id="removed-augment-key",
    ),
    pytest.param(config_error("--workers", "0"), (2, False), id="zero-workers"),
    pytest.param(config_error("--workers", "65"), (2, False), id="workers-above-max"),
    pytest.param(
        config_error(config={"pipeline": [1]}), (2, False), id="pipeline-section-not-object"
    ),
    pytest.param(
        config_error(config={"augment": "lungmix"}), (2, False), id="augment-section-not-object"
    ),
    pytest.param(
        config_error(config={"augment": {"strategy": "bogus"}}), (2, False), id="bogus-strategy"
    ),
    pytest.param(
        config_error(config={"augment": {"interpolation": "bogus"}}), (2, False),
        id="bogus-interpolation",
    ),
    pytest.param(
        config_error(config={"augment": {"semantics": "bogus"}}), (2, False),
        id="bogus-semantics",
    ),
    pytest.param(
        config_error(config={"augment": {"pairing": "bogus"}}), (2, False), id="bogus-pairing"
    ),
    pytest.param(config_error(config={"augment": {"alpha": 0}}), (2, False), id="zero-alpha"),
    pytest.param(
        config_file_given("eval", "--predictions", "absent.jsonl"), 2, id="eval-rejects-config"
    ),
    pytest.param(
        config_file_given("inspect-mask", "--a", "a.wav", "--b", "b.wav"), 2,
        id="inspect-mask-rejects-config",
    ),
    pytest.param(output_rates_at_8khz, (0, {8000}), id="outputs-follow-pipeline-rate"),
    pytest.param(failed_rerun, (3, False), id="failed-rerun-leaves-no-manifest"),
    pytest.param(failed_midway, (3, ["broken"], []), id="failed-run-leaves-no-output"),
    pytest.param(
        foreign_file_in_out("augment", "--pairs", "2", "--seed", "7"), (2, ["notes.txt"]),
        id="out-holds-foreign-file",
    ),
    pytest.param(foreign_file_in_out("synth"), (2, ["notes.txt"]), id="synth-out-holds-foreign-file"),
    pytest.param(synth_failing_write(True), (4, ["o"], True), id="synth-failed-rerun-leaves-no-manifest"),
    pytest.param(synth_failing_write(False), (4, [], True), id="synth-failed-run-leaves-no-output"),
    pytest.param(preprocess_fails, (3, False), id="preprocess-failure-leaves-no-output"),
    pytest.param(
        config_error("--duration", "1e308", command="synth"), (2, False), id="synth-overflowing-duration"
    ),
    pytest.param(
        config_error("--clip-seconds", "1e308", command="preprocess"), (2, False),
        id="preprocess-overflowing-clip-seconds",
    ),
    pytest.param(
        config_error(config={"pipeline": {"hop_ms": 1e308}}, command="preprocess"), (2, False),
        id="preprocess-overflowing-hop-ms",
    ),
    pytest.param(
        config_error("--sample-rate", "1" + "0" * 400, command="synth"), (2, False),
        id="synth-sample-rate-too-large-for-a-float",
    ),
    pytest.param(
        config_error("--target-rate", "1" + "0" * 400, command="preprocess"), (2, False),
        id="preprocess-target-rate-too-large-for-a-float",
    ),
    pytest.param(
        config_error("--duration", "1e12", command="synth"), (4, False), id="synth-out-of-memory"
    ),
    pytest.param(nan_spectrogram, ("NumericalError", 3), id="nan-spectrogram-is-data-error"),
    pytest.param(
        config_error(config={"augment": {"n_pairs": 2.5}}), (2, False), id="float-n-pairs"
    ),
    pytest.param(
        config_error(config={"augment": {"workers": 1.5}}), (2, False), id="float-workers"
    ),
    pytest.param(config_error(config={"augment": {"n_pairs": True}}), (2, False), id="bool-n-pairs"),
    pytest.param(bad_label_maps("{broken"), (2, False), id="label-maps-not-json"),
    pytest.param(file_flag_names("absent", "--label-maps"), (2, False), id="label-maps-absent"),
    pytest.param(
        file_flag_names("directory", "--label-maps"), (2, False), id="label-maps-is-directory"
    ),
    pytest.param(file_flag_names("absent", "--config"), (2, False), id="config-absent"),
    pytest.param(file_flag_names("directory", "--config"), (2, False), id="config-is-directory"),
    pytest.param(absent_input("eval", "--predictions"), 4, id="eval-absent-predictions"),
    pytest.param(absent_input("inspect-mask", "--a", "--b"), 4, id="inspect-mask-absent-input"),
    pytest.param(
        preprocess_at_another_config, (2, True), id="preprocess-out-holds-another-config"
    ),
    pytest.param(preprocess_same_stem, (2, True), id="preprocess-out-holds-same-named-input"),
    pytest.param(bad_label_maps('{"icbhi": [1]}'), (2, False), id="label-map-table-not-object"),
    pytest.param(
        config_error(config={"pipeline": {"mel_bins": 0}}, command="preprocess"), (2, False),
        id="zero-mel-bins",
    ),
    pytest.param(
        config_error(config={"pipeline": {"window_ms": 0.01}}, command="preprocess"), (2, False),
        id="sub-sample-window",
    ),
    pytest.param(
        config_error("--in", "absent.wav", command="preprocess"), (4, False),
        id="preprocess-absent-input",
    ),
    pytest.param(
        config_error("--strategy", "patchmix", config={"pipeline": {"frames": 100}}), (2, False),
        id="patchmix-frames-not-patch-multiple",
    ),
    pytest.param(
        eval_second_line(b'{"true": "cough", "predicted": "normal"}'), (3, True, False),
        id="eval-unknown-class-is-data-error",
    ),
    pytest.param(
        config_error(config={"master_seed": "x"}, command="preprocess"), (2, False),
        id="preprocess-string-master-seed",
    ),
    pytest.param(
        config_error(config={"master_seed": 1.5}, command="synth"), (2, False),
        id="synth-float-master-seed",
    ),
    pytest.param(
        config_error(config={"master_seed": True}), (2, False), id="augment-bool-master-seed"
    ),
    pytest.param(
        config_error(config={"augment": {"master_seed": 5}}), (2, False),
        id="removed-augment-master-seed",
    ),
    pytest.param(
        config_error(config={"augmnet": {"n_pairs": 2}}), (2, False), id="unknown-top-level-key"
    ),
    pytest.param(config_error(config={"command": "synth"}), (2, False), id="foreign-command"),
    pytest.param(manifest_line(lambda rec: 5), (3, True, False), id="manifest-line-is-number"),
    pytest.param(manifest_line(lambda rec: [1, 2]), (3, True, False), id="manifest-line-is-list"),
    pytest.param(
        manifest_line(lambda rec: {**rec, "segment": [1.0]}), (3, True, False),
        id="manifest-one-item-segment",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "segment": [0.0, 1.0, 2.0]}), (3, True, False),
        id="manifest-three-item-segment",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "segment": [0.0, float("inf")]}), (3, True, False),
        id="manifest-infinite-segment",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "segment": [True, 2]}), (3, True, False),
        id="manifest-bool-segment",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "segment": [0, 10**400]}), (3, True, False),
        id="manifest-segment-int-too-large-for-a-float",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "label_raw": 5}), (3, True, False),
        id="manifest-number-label-raw",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "audio_path": 5}), (3, True, False),
        id="manifest-number-audio-path",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "provenance": 5}), (3, True, False),
        id="manifest-number-provenance",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "soft_target": "x"}), (3, True, False),
        id="manifest-string-soft-target",
    ),
    pytest.param(broken_copy(huge_fmt_chunk), (3, True, False), id="wav-huge-fmt-chunk"),
    pytest.param(broken_copy(zero_rate), (3, True, False), id="wav-zero-rate"),
    pytest.param(config_error("--per-class", "0", command="synth"), (2, False), id="synth-zero-per-class"),
    pytest.param(config_error("--duration", "0", command="synth"), (2, False), id="synth-zero-duration"),
    pytest.param(config_error("--duration", "nan", command="synth"), (2, False), id="synth-nan-duration"),
    pytest.param(config_error("--duration", "inf", command="synth"), (2, False), id="synth-inf-duration"),
    pytest.param(
        config_error("--duration", "0.00001", "--n-events", "0", command="synth"), (2, False),
        id="synth-duration-under-one-sample",
    ),
    pytest.param(
        config_error("--clip-seconds", "nan", command="preprocess"), (2, False),
        id="preprocess-nan-clip-seconds",
    ),
    pytest.param(
        config_error("--clip-seconds", "inf", command="preprocess"), (2, False),
        id="preprocess-inf-clip-seconds",
    ),
    pytest.param(
        config_error(config={"pipeline": {"hop_ms": float("nan")}}), (2, False), id="nan-hop-ms"
    ),
    pytest.param(manifest_line(lambda rec: b"\xff\xfe"), (3, True, False), id="manifest-line-not-utf8"),
    pytest.param(non_utf8_file("--config"), (2, False), id="config-file-not-utf8"),
    pytest.param(non_utf8_file("--label-maps"), (2, False), id="label-maps-not-utf8"),
    pytest.param(eval_second_line(b"\xff\xfe"), (3, True, False), id="eval-predictions-not-utf8"),
    pytest.param(
        manifest_line(lambda rec: b"[" * 100_000), (3, True, False),
        id="manifest-line-nested-too-deep",
    ),
    pytest.param(
        eval_second_line(b"[" * 100_000), (3, True, False), id="eval-predictions-nested-too-deep"
    ),
    pytest.param(
        manifest_line(lambda rec: json.dumps(rec).encode()[:-1] + b', "n": ' + LONG_INT + b"}"),
        (3, True, False), id="manifest-line-integer-too-long",
    ),
    pytest.param(
        eval_second_line(b'{"true": "normal", "predicted": "normal", "n": ' + LONG_INT + b"}"),
        (3, True, False), id="eval-predictions-integer-too-long",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "events": "abc"}), (3, True, False),
        id="manifest-events-string",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "events": {"x": 1}}), (3, True, False),
        id="manifest-events-object",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "events": [[1]]}), (3, True, False),
        id="manifest-event-one-item",
    ),
    pytest.param(
        manifest_line(lambda rec: {**rec, "events": [[2.0, 1.0, "wheeze"]]}), (3, True, False),
        id="manifest-event-ends-before-start",
    ),
]


@pytest.mark.parametrize(("run", "expected"), FAULTS)
def test_fault_outcomes(corpus, tmp_path, run, expected):
    assert run(corpus, tmp_path) == expected


def test_blank_lines_hold_no_row(corpus, tmp_path):
    """Blank, whitespace-only and NBSP-only lines are skipped by load_manifest and by eval."""
    blanks = b"\n \t\r\n\xc2\xa0\n\xc2\xa0 \xe3\x80\x80\n"
    spaced = tmp_path / "spaced"
    shutil.copytree(corpus, spaced)
    lines = (corpus / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    (spaced / "corpus.jsonl").write_bytes(blanks + blanks.join(lines) + blanks)
    assert load_manifest(spaced / "corpus.jsonl") == load_manifest(corpus / "corpus.jsonl")

    rows = [b'{"true": "%s", "predicted": "normal"}\n' % c.encode() for c in ("normal", "wheeze")]
    reports = []
    for name, text in (("plain", b"".join(rows)), ("spaced", blanks + blanks.join(rows) + blanks)):
        (tmp_path / f"{name}.jsonl").write_bytes(text)
        out = tmp_path / f"{name}.json"
        assert main(["eval", "--predictions", str(tmp_path / f"{name}.jsonl"), "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1] and sum(reports[0]["totals"].values()) == 2


# dests that fill no config field; any other option's dest must be a field
# of the class its command builds, or the flag would be dropped silently
NON_CONFIG_DESTS = {"manifest", "out", "config", "label_maps", "infile", "csv", "file_a", "file_b"}


@pytest.mark.parametrize(
    ("command", "cls", "extra"),
    [
        # --seed sets the top-level master_seed, not a section field
        ("preprocess", PipelineConfig, {"master_seed"}),
        ("augment", AugmentPlan, {"master_seed"}),
        ("inspect-mask", MixParams, set()),
        ("synth", CorpusPlan, {"master_seed"}),
    ],
)
def test_option_dests_are_config_fields(command, cls, extra):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [a for a in sub.choices[command]._actions if a.dest != "help"]
    names = {f.name for f in fields(cls)}
    assert {a.dest for a in options} - NON_CONFIG_DESTS - extra <= names
    # the dataclass defaults are the only defaults
    assert all(a.default is None for a in options if a.dest in names)


def files(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize(
    ("command", "flags", "config"),
    [
        pytest.param(
            "preprocess", ("--target-rate", "8000", "--clip-seconds", "12", "--seed", "5"), None,
            id="preprocess",
        ),
        pytest.param(
            "augment",
            ("--pairs", "3", "--seed", "9", "--alpha", "0.5", "--pairing", "cross-class",
             "--workers", "2"),
            None,
            id="augment-lungmix",
        ),
        pytest.param(
            "augment", ("--strategy", "patchmix", "--mode", "combined", "--pairs", "2"),
            {"master_seed": 9, "pipeline": {"clip_seconds": 10.0}},
            id="augment-patchmix",
        ),
        pytest.param(
            "synth",
            ("--per-class", "2", "--duration", "3", "--sample-rate", "8000", "--n-events", "2",
             "--seed", "4"),
            None,
            id="synth",
        ),
    ],
)
def test_snapshot_replays_the_run(corpus, tmp_path, command, flags, config):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_command(command, corpus, first, *flags, config=config) == 0
    assert run_command(command, corpus, again, "--config", str(first / "config_snapshot.json")) == 0
    assert files(again) == files(first)


def test_preprocess_snapshot_replays_every_input(corpus, tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    replay = ("--config", str(first / "config_snapshot.json"))
    for out, flags in ((first, ("--seed", "3", "--clip-seconds", "4")), (again, replay)):
        for wav in ("synth-crackle-000.wav", "synth-wheeze-000.wav"):
            assert main(["preprocess", "--in", str(corpus / wav), "--out", str(out), *flags]) == 0
    assert len(files(first)) == 5
    assert files(again) == files(first)


def test_rerun_with_fewer_pairs_leaves_no_stale_files(corpus, tmp_path):
    out = tmp_path / "o"
    assert augment_lungmix(corpus, out, "--pairs", "4") == 0
    assert augment_lungmix(corpus, out, "--pairs", "2") == 0
    assert sorted(files(out)) == [
        "aug-00000.wav", "aug-00001.wav", "augmented.jsonl", "config_snapshot.json",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]


def test_config_seed_and_flag_seed_agree(corpus, tmp_path):
    from_config, from_flag = tmp_path / "config", tmp_path / "flag"
    assert run_command("augment", corpus, from_config, "--pairs", "3", config={"master_seed": 5}) == 0
    assert run_command("augment", corpus, from_flag, "--pairs", "3", "--seed", "5") == 0
    assert files(from_config) == files(from_flag)


def test_seed_too_large_for_a_float_is_refused_as_not_finite(corpus, tmp_path):
    out, err = tmp_path / "o", io.StringIO()
    with redirect_stderr(err):
        rc = run_command("synth", corpus, out, "--seed", str(10**400))
    assert (rc, out.exists()) == (2, False)
    assert f"master_seed must be finite, got {10**400}" in err.getvalue()


@pytest.mark.parametrize(
    ("section", "cls", "values", "ok"),
    [
        ("augment", AugmentPlan, {"alpha": 2, "lam": None}, True),  # int for float, null
        ("augment", AugmentPlan, {"lam": 0.5, "apply_roll": False}, True),
        ("augment", AugmentPlan, {"n_pairs": 2.0}, False),
        ("augment", AugmentPlan, {"apply_roll": 1}, False),
        ("augment", AugmentPlan, {"strategy": None}, False),
        ("pipeline", PipelineConfig, {"clip_seconds": True}, False),
        ("pipeline", PipelineConfig, {"norm_mean": "0"}, False),
        ("augment", AugmentPlan, {"alpha": float("nan")}, False),
        ("pipeline", PipelineConfig, {"norm_mean": 10**400}, False),  # no float holds it
    ],
)
def test_section_checks_value_types(section, cls, values, ok):
    build = lambda: cli._section({section: values}, section, cls, argparse.Namespace())
    if ok:
        assert build() == cls(**values)
    else:
        with pytest.raises(InvalidConfig):
            build()
