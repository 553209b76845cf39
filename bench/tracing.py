"""Span tracing for the benchmark's traced passes.

`Tracer.install` wraps the public functions of every lungmix layer from the
outside. A module that did `from .pipeline import resample` holds its own
copy of the name, so the wrapper replaces the function at every binding site:
each module namespace whose attribute *is* the original function object.
Spans are kept in memory, one list per process, and each thread has its own
span stack, so pool workers never nest into each other's spans.

Self time is a span's duration minus the time its child spans (same thread)
cover. Bookkeeping done after a span ends (counters, file sizes) is charged
to the parent as child time, so it lands in no layer's self time.
"""

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# layer (lungmix module) -> traced public functions
LAYERS = {
    "audio_io": ("read_wav", "write_wav", "write_spectrogram"),
    "pipeline": (
        "resample",
        "bandpass",
        "fit_length",
        "mel_filterbank",
        "mel_spectrogram",
        "normalize_spectrogram",
        "preprocess",
    ),
    "masks": ("loudness_mask", "random_mask", "combine_masks"),
    "mixing": ("mix", "apply_mix_mask", "shift_roll_pair", "patchmix"),
    "labels": ("interpolate_label",),
    "dataset": ("load_manifest", "align_records", "pair_records", "export_augmented", "save_manifest"),
    "augment": ("augment_corpus",),
    "synth": ("make_corpus", "synth"),
    "metrics": ("score",),
    "cli": ("main",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _read_wav_info(args, kwargs, result):
    return {"path": os.path.abspath(_arg(args, kwargs, 0, "path"))}


def _write_wav_info(args, kwargs, result):
    samples = _arg(args, kwargs, 1, "w").samples
    return {
        "bytes": os.path.getsize(_arg(args, kwargs, 0, "path")),
        "clipped": int(np.count_nonzero(np.abs(samples) > 1.0)),
    }


def _write_spec_info(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _resample_info(args, kwargs, result):
    return {"passthrough": int(_arg(args, kwargs, 0, "w").sample_rate == result.sample_rate)}


def _fit_length_info(args, kwargs, result):
    return {"padded": int(len(_arg(args, kwargs, 0, "w")) < len(result))}


# per-call counters, computed after the call returns (outside its span)
COUNTERS = {
    "audio_io.read_wav": _read_wav_info,
    "audio_io.write_wav": _write_wav_info,
    "audio_io.write_spectrogram": _write_spec_info,
    "pipeline.resample": _resample_info,
    "pipeline.fit_length": _fit_length_info,
}

# spans that also record process CPU time
CPU_SPANS = {"augment.augment_corpus"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, thread id, start, end, self_s, info)
        self._local = threading.local()

    def _wrap(self, name, fn):
        local = self._local
        spans = self.spans
        counter = COUNTERS.get(name)
        cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
            info = counter(args, kwargs, result) if counter else None
            if cpu:
                info = {"cpu_s": time.process_time() - c0}
            spans.append((name, threading.get_ident(), t0, t1, t1 - t0 - child, info))
            if stack:
                stack[-1] += time.perf_counter() - t0
            return result

        return wrapper

    def install(self, extra_namespaces=()):
        """Wrap every function in LAYERS at every binding site.

        Binding sites are the lungmix modules plus `extra_namespaces` (for
        instance a script that imported lungmix names). Every layer module
        must already be imported.
        """
        namespaces = [
            mod for key, mod in sys.modules.items() if key == "lungmix" or key.startswith("lungmix.")
        ]
        namespaces += list(extra_namespaces)
        for layer, names in LAYERS.items():
            module = sys.modules[f"lungmix.{layer}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, tid, t0, t1, self_s, info in self.spans:
                row = {"name": name, "thread": tid, "start": t0, "end": t1, "self_s": self_s}
                if info:
                    row.update(info)
                fh.write(json.dumps(row) + "\n")

    def summary(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        extra = defaultdict(float)
        paths = set()
        for name, _tid, _t0, _t1, s, info in self.spans:
            calls[name] += 1
            self_s[name] += s
            if info:
                for key, value in info.items():
                    if key == "path":
                        paths.add(value)
                    else:
                        extra[f"{name}.{key}"] += value

        out = {}
        for layer, names in LAYERS.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                if name in CPU_SPANS:
                    continue
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
        for key in ("audio_io.write_wav.bytes", "audio_io.write_wav.clipped",
                    "audio_io.write_spectrogram.bytes", "pipeline.resample.passthrough",
                    "pipeline.fit_length.padded"):
            out[key] = extra[key]
        n_read = calls["audio_io.read_wav"]
        out["audio_io.read_wav.reuse"] = n_read / len(paths) if paths else 0.0
        out.update(self._augment_summary())
        return out

    def _augment_summary(self) -> dict:
        """Wall time, CPU per wall and thread overlap of augment_corpus.

        Overlap is the self time of every other span inside an
        augment_corpus span, on any thread, divided by its wall time.
        """
        wall = cpu = busy = 0.0
        n = 0
        for name, _tid, t0, t1, _s, info in self.spans:
            if name != "augment.augment_corpus":
                continue
            n += 1
            wall += t1 - t0
            cpu += info["cpu_s"]
            busy += sum(
                s for other, _, u0, u1, s, _ in self.spans
                if other != name and u0 >= t0 and u1 <= t1
            )
        return {
            "augment.augment_corpus.calls": n,
            "augment.augment_corpus.wall_s": wall,
            "augment.augment_corpus.cpu_per_wall": cpu / wall if wall else 0.0,
            "augment.augment_corpus.overlap": busy / wall if wall else 0.0,
        }
