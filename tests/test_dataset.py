"""Manifest handling, label alignment, and deterministic export."""

import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lungmix.dataset import (
    RecordManifest,
    align_label,
    align_records,
    default_label_maps,
    export_augmented,
    load_label_maps_data,
    load_manifest,
    pair_records,
    read_json,
    save_manifest,
)
from lungmix.errors import InvalidConfig, LungmixError, MissingAudio, ParseError, UnknownLabel
from lungmix.labels import FOUR_CLASS
from lungmix.masks import MixParams
from lungmix.mixing import MixRequest, lungmix
from lungmix.pipeline import Waveform
from lungmix.rng import derive_rng


def record(i, label="normal", split="train", path="x.wav"):
    return RecordManifest(
        record_id=f"rec-{i}",
        audio_path=path,
        dataset="synthetic",
        split=split,
        label_raw=label,
        label_unified=label,
    )


class TestAlignLabel:
    def test_spr_fine_crackle(self):
        assert align_label("spr", "fine crackle") == "crackle"

    def test_spr_stridor(self):
        assert align_label("spr", "stridor") == "wheeze"

    def test_icbhi_identity(self):
        assert align_label("icbhi", "both") == "both"

    def test_case_and_whitespace_insensitive(self):
        assert align_label("spr", "  Coarse Crackle ") == "crackle"

    def test_unknown_label_raises(self):
        with pytest.raises(UnknownLabel):
            align_label("icbhi", "squeak")

    def test_unknown_dataset_raises(self):
        with pytest.raises(UnknownLabel):
            align_label("icbhi2", "normal", maps={})

    def test_hf_never_emits_both(self):
        maps = default_label_maps()
        assert "both" not in maps["hf"].values()
        with pytest.raises(InvalidConfig):
            load_label_maps_data({"hf": {"mixed": "both"}})

    def test_default_maps_are_a_fresh_copy_each_call(self):
        maps = default_label_maps()
        maps["spr"].clear()
        assert default_label_maps() is not maps
        assert default_label_maps()["spr"] and align_label("spr", "fine crackle") == "crackle"

    def test_shipped_maps_are_total(self):
        maps = default_label_maps()
        for dataset, table in maps.items():
            for raw in table:
                assert align_label(dataset, raw, maps) in ("normal", "crackle", "wheeze", "both")


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda path: None, id="absent"),
        pytest.param(lambda path: path.mkdir(), id="directory"),
        pytest.param(lambda path: path.write_bytes(b'{"\xff": 1}'), id="not-utf8"),
        pytest.param(lambda path: path.write_text("{broken"), id="not-json"),
        pytest.param(lambda path: path.write_text("[" * 100_000), id="nested-too-deep"),
        pytest.param(lambda path: path.write_text("[1]"), id="not-an-object"),
        pytest.param(lambda path: path.write_text('{"a": 1' + "0" * 4999 + "}"), id="integer-too-long"),
    ],
)
def test_read_json_failures_are_config_errors_naming_the_file(tmp_path, make):
    path = tmp_path / "maps.json"
    make(path)
    with pytest.raises(InvalidConfig, match=f"label maps {path}"):
        read_json(path, "label maps")


class TestAlignRecords:
    def test_fills_unified_labels(self):
        recs = [
            RecordManifest("r0", "a.wav", "spr", "train", "fine crackle"),
            RecordManifest("r1", "b.wav", "spr", "train", "rhonchus"),
        ]
        out = align_records(recs)
        assert [r.label_unified for r in out] == ["crackle", "wheeze"]

    def test_skip_rate_over_threshold_fails(self):
        recs = [RecordManifest(f"r{i}", "x.wav", "icbhi", "train", "normal") for i in range(8)]
        recs += [RecordManifest("bad0", "x.wav", "icbhi", "train", "squeak"),
                 RecordManifest("bad1", "x.wav", "icbhi", "train", "squeal")]
        with pytest.raises(UnknownLabel):
            align_records(recs)

    def test_skips_below_threshold_are_logged_not_fatal(self):
        recs = [RecordManifest(f"r{i}", "x.wav", "icbhi", "train", "normal") for i in range(30)]
        recs.append(RecordManifest("bad", "x.wav", "icbhi", "train", "squeak"))
        out = align_records(recs)
        assert len(out) == 30


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=6,
)
# a valid record with any of its fields replaced by an arbitrary JSON value
RECORD_LINES = st.fixed_dictionaries(
    {},
    optional={
        name: JSON_VALUES
        for name in (
            "record_id", "audio_path", "dataset", "split", "label_raw", "label_unified",
            "segment", "events", "soft_target", "provenance",
        )
    },
).map(lambda fields: {**record(0, label="wheeze").to_dict(), "label_unified": None, **fields})


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(JSON_VALUES | RECORD_LINES, max_size=4))
def test_any_json_lines_raise_only_lungmix_errors(tmp_path, lines):
    path = tmp_path / "m.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    (tmp_path / "x.wav").write_bytes(b"RIFF")
    try:
        align_records(load_manifest(path))
    except LungmixError:
        pass


EVENT_ITEMS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
# event lists, mostly of three items, sometimes of another shape or not a list
EVENTS = st.lists(
    st.tuples(EVENT_ITEMS, EVENT_ITEMS, EVENT_ITEMS).map(list)
    | st.tuples(st.floats(0, 10), st.floats(0, 10), st.text(max_size=4)).map(list)
    | st.lists(EVENT_ITEMS, max_size=4)
    | EVENT_ITEMS,
    max_size=3,
) | JSON_VALUES


def is_event(event) -> bool:
    if not isinstance(event, list) or len(event) != 3:
        return False
    start, end, label = event
    numbers = all(type(t) in (int, float) and abs(t) <= sys.float_info.max for t in (start, end))
    return numbers and isinstance(label, str) and 0 <= start <= end


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(events=EVENTS)
def test_events_load_only_as_start_end_label_triples(tmp_path, events):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({**record(0).to_dict(), "events": events}) + "\n")
    (tmp_path / "x.wav").write_bytes(b"RIFF")
    valid = events is None or (isinstance(events, list) and all(map(is_event, events)))
    try:
        [rec] = load_manifest(path)
    except ParseError as exc:
        assert not valid and f"{path}:1:" in str(exc)
    else:
        assert valid
        assert rec.events == (None if events is None else [tuple(e) for e in events])


class TestLoadManifest:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert load_manifest(path) == []

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = [record(i).to_dict() for i in range(3)]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        (tmp_path / "x.wav").write_bytes(b"RIFF")
        out = load_manifest(path)
        assert [r.record_id for r in out] == ["rec-0", "rec-1", "rec-2"]

    def test_missing_label_raw_reports_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        good = record(0).to_dict()
        bad = record(1).to_dict()
        del bad["label_raw"]
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        (tmp_path / "x.wav").write_bytes(b"RIFF")
        with pytest.raises(ParseError, match=":2:"):
            load_manifest(path)

    def test_infinite_segment_reports_line(self, tmp_path):
        """Python's `json` reads `Infinity`, so the manifest check must refuse it."""
        path = tmp_path / "m.jsonl"
        bad = {**record(1).to_dict(), "segment": [0, float("inf")]}
        path.write_text(json.dumps(record(0).to_dict()) + "\n" + json.dumps(bad) + "\n")
        (tmp_path / "x.wav").write_bytes(b"RIFF")
        with pytest.raises(ParseError, match=":2:.*segment"):
            load_manifest(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ParseError, match=":1:"):
            load_manifest(path)

    def test_missing_audio_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(record(0, path="gone.wav").to_dict()) + "\n")
        with pytest.raises(MissingAudio):
            load_manifest(path)

    def test_empty_audio_path_raises(self, tmp_path):
        # "" resolves to the manifest's own directory, which exists
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(record(0, path="").to_dict()) + "\n")
        with pytest.raises(MissingAudio):
            load_manifest(path)

    def test_foreign_keys_survive_roundtrip(self, tmp_path):
        rec = record(0)
        rec.extras = {"site": "ward-3"}
        path = save_manifest([rec], tmp_path / "m.jsonl")
        (tmp_path / "x.wav").write_bytes(b"RIFF")
        back = load_manifest(path)[0]
        assert back.extras == {"site": "ward-3"}

    def test_roundtrip_preserves_fields(self, tmp_path):
        rec = RecordManifest(
            record_id="r0",
            audio_path="x.wav",
            dataset="icbhi",
            split="test",
            label_raw="both",
            label_unified="both",
            segment=(0.5, 2.25),
            events=[(0.6, 0.7, "crackle")],
        )
        path = save_manifest([rec], tmp_path / "m.jsonl")
        (tmp_path / "x.wav").write_bytes(b"RIFF")
        back = load_manifest(path)[0]
        assert back == rec


class TestExportAugmented:
    def _result(self, seed):
        rng = np.random.default_rng(seed)
        a = Waveform(rng.uniform(-0.3, 0.3, 2000), 16000)
        b = Waveform(rng.uniform(-0.3, 0.3, 2000), 16000)
        req = MixRequest(
            audio_a=a,
            label_a=FOUR_CLASS.vector("crackle"),
            audio_b=b,
            label_b=FOUR_CLASS.vector("wheeze"),
            params=MixParams(seed=seed),
            strategy="lungmix",
            interpolation="nonlinear",
            id_a="src-a",
            id_b="src-b",
        )
        return lungmix(req)

    def test_empty_results_valid_manifest(self, tmp_path):
        manifest = export_augmented([], tmp_path)
        assert manifest.read_text() == ""
        assert load_manifest(manifest) == []

    def test_single_result_layout(self, tmp_path):
        manifest = export_augmented([self._result(1)], tmp_path)
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["provenance"]["strategy"] == "lungmix"
        assert rows[0]["label_unified"] == "both"
        assert (tmp_path / rows[0]["audio_path"]).exists()

    def test_reexport_is_byte_identical(self, tmp_path):
        def run(root):
            export_augmented([self._result(2), self._result(3)], root)
            h = hashlib.sha256()
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    h.update(p.name.encode())
                    h.update(p.read_bytes())
            return h.hexdigest()

        assert run(tmp_path / "one") == run(tmp_path / "two")

    def test_export_load_roundtrip(self, tmp_path):
        manifest = export_augmented([self._result(4)], tmp_path)
        back = load_manifest(manifest)
        assert back[0].provenance["source_a"] == "src-a"
        assert back[0].provenance["seed"] == 4


class TestPairing:
    def test_pairs_only_from_train_split(self):
        recs = [record(i, split="train") for i in range(3)]
        recs += [record(10 + i, split="test") for i in range(3)]
        pairs = pair_records(recs, 50, "uniform", np.random.default_rng(5))
        for a, b in pairs:
            assert a.split == b.split == "train"

    def test_cross_class_pairs_differ(self):
        recs = [record(0, label="normal"), record(1, label="crackle"),
                record(2, label="wheeze"), record(3, label="both")]
        pairs = pair_records(recs, 50, "cross-class", np.random.default_rng(6))
        for a, b in pairs:
            assert a.label_unified != b.label_unified

    def test_single_class_cross_pairing_fails(self):
        recs = [record(0), record(1)]
        with pytest.raises(InvalidConfig):
            pair_records(recs, 5, "cross-class", np.random.default_rng(7))

    def test_cross_class_pairing_draws_until_a_rare_class_pairs(self):
        """One wheeze among 20000 normal records: about one draw in 10000 is
        cross-class, and each pair is drawn until it is one. A cap of 10000
        draws per pair refused this corpus under `augment`'s seed-0 stream."""
        recs = [record(i) for i in range(20000)] + [record(20000, label="wheeze")]
        pairs = pair_records(recs, 5, "cross-class", derive_rng(0, "pairing"))
        assert len(pairs) == 5
        assert all("wheeze" in (a.label_unified, b.label_unified) for a, b in pairs)

    def test_too_few_records_fails(self):
        with pytest.raises(InvalidConfig):
            pair_records([record(0)], 5, "uniform", np.random.default_rng(8))


class TestRecordValidation:
    def test_bad_dataset_rejected(self):
        with pytest.raises(InvalidConfig):
            RecordManifest("r", "x.wav", "other", "train", "normal")

    def test_bad_segment_rejected(self):
        with pytest.raises(InvalidConfig):
            RecordManifest("r", "x.wav", "icbhi", "train", "normal", segment=(2.0, 1.0))

    @pytest.mark.parametrize(
        "segment",
        [(0, float("inf")), (float("nan"), 1.0), (True, 2), (0, False), ("a", "b"), (0, None),
         (0, 10**400), (10**5000, 1.0)],
        ids=["infinite-end", "nan-start", "bool-start", "bool-end", "strings", "none-end",
             "int-too-large-end", "int-too-long-to-print-start"],
    )
    def test_segment_bounds_are_finite_seconds(self, segment):
        with pytest.raises(InvalidConfig, match="segment"):
            RecordManifest("r", "x.wav", "icbhi", "train", "normal", segment=segment)

    @pytest.mark.parametrize(
        "events",
        [[(0.1, 10**400, "crackle")], [[0.1, 0.2, "crackle"]]],
        ids=["int-too-large-end", "list-item"],
    )
    def test_events_are_tuples_of_finite_seconds(self, events):
        with pytest.raises(InvalidConfig, match="events"):
            RecordManifest("r", "x.wav", "icbhi", "train", "normal", events=events)
