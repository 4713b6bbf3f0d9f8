"""Per-layer spans recorded from outside mufact, for the traced run only.

`Tracer.install()` replaces mufact's public functions, in every module that
binds them, by wrappers that record a span per call: inclusive time, self
time (span minus child spans) and a call count, kept in memory. Layers are
the package's modules; `linalg` sits underneath and is not wrapped.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import mufact
import mufact.channels as channels
import mufact.cli as cli
import mufact.factorise as factorise
import mufact.fileio as fileio
import mufact.norms as norms

MODULES = [mufact, channels, factorise, norms, fileio, cli]

# (module, function name, span key). Functions sharing a key are one span
# kind: an inner call under an outer span of the same key adds self time
# but no second copy of inclusive time. Spans with no metric of their own
# (verify, random, psd, check) keep library time out of cli.self_s.
FUNCTIONS = [
    (cli, "main", "cli.main"),
    (fileio, "load_matrix", "fileio.load"),
    (fileio, "load_ensemble", "fileio.load"),
    (fileio, "load_certificate", "fileio.load"),
    (fileio, "save_json", "fileio.save"),
    (fileio, "save_matrix", "fileio.save"),
    (fileio, "matrix_to_json", "fileio.save"),
    (fileio, "ensemble_to_json", "fileio.save"),
    (fileio, "tuple_ensemble_to_json", "fileio.save"),
    (fileio, "certificate_to_json", "fileio.save"),
    (fileio, "report_json", "fileio.save"),
    (fileio, "rounded", "fileio.save"),
    (channels, "choi_of", "channels.choi"),
    (channels, "delta_compress", "channels.delta_compress"),
    (factorise, "mu_ensemble_from_tuples", "factorise.mu"),
    (factorise, "tuples_from_ensemble", "factorise.extract"),
    (factorise, "correction_pipeline", "factorise.correct"),
    (factorise, "membership_solve", "factorise.membership"),
    (factorise, "dist_upper_bound", "factorise.dist"),
    (factorise, "verify_certificate", "factorise.verify"),
    (factorise, "random_tuple_ensemble", "factorise.random"),
    (norms, "schur_cb_norm", "norms.cb"),
    (norms, "superop_norm_lb", "norms.superop"),
    (norms, "schur_norm_psd", "norms.psd"),
]
METHODS = [
    (channels.MixedUnitaryEnsemble, "apply", "channels.apply"),
    (channels.MixedUnitaryEnsemble, "check", "channels.check"),
    (channels.SchurSymbol, "check", "channels.check"),
]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [child time] per open span
        self.active: dict[str, int] = defaultdict(int)
        # tracemalloc slows every allocation several-fold, so the peak of
        # delta_compress is taken in a separate pass, not in the timed one
        self.probe_memory = False
        self.reset()

    def reset(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.eigh_in_cb = 0
        self.members_built = 0
        self.bytes_written = 0
        self.delta_compress_peak = 0

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            nested = tracer.active[key] > 0
            frame = [0.0]
            tracer.stack.append(frame)
            tracer.active[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.active[key] -= 1
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                tracer.calls[key] += 1
                tracer.self_time[key] += dt - frame[0]
                if not nested:
                    tracer.inclusive[key] += dt

        return span

    def install(self):
        for module, name, key in FUNCTIONS:
            original = getattr(module, name)
            wrapped = self._wrap(self._extra(name, original), key)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        for cls, name, key in METHODS:
            setattr(cls, name, self._wrap(getattr(cls, name), key))
        self._count_members()
        self._count_eigh()

    # -- counters at the same boundaries ---------------------------------------

    def _extra(self, name: str, fn):
        """Counters that need the call's arguments or a memory probe."""
        tracer = self
        if name == "save_json":
            @functools.wraps(fn)
            def save_json(path, obj):
                fn(path, obj)
                tracer.bytes_written += os.path.getsize(path)
            return save_json
        if name == "delta_compress":
            @functools.wraps(fn)
            def delta_compress(*args, **kwargs):
                if not tracer.probe_memory:
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.delta_compress_peak = max(tracer.delta_compress_peak, peak)
            return delta_compress
        return fn

    def _count_members(self):
        tracer = self
        cls = channels.MixedUnitaryEnsemble
        post_init = cls.__post_init__

        @functools.wraps(post_init)
        def counted(ens):
            post_init(ens)
            tracer.members_built += len(ens.weights)

        cls.__post_init__ = counted

    def _count_eigh(self):
        tracer = self
        eigh = np.linalg.eigh

        @functools.wraps(eigh)
        def counted(*args, **kwargs):
            if tracer.active["norms.cb"]:
                tracer.eigh_in_cb += 1
            return eigh(*args, **kwargs)

        np.linalg.eigh = counted

    # -- report ----------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of the timed pass, plus the memory probe."""
        per = 1.0 / rounds
        inc, own, calls = self.inclusive, self.self_time, self.calls
        values = {
            "channels.choi_s": (inc["channels.choi"] * per, "s/round"),
            "channels.choi_calls": (calls["channels.choi"] * per, "count/round"),
            "channels.apply_calls": (calls["channels.apply"] * per, "count/round"),
            "channels.delta_compress_s": (inc["channels.delta_compress"] * per, "s/round"),
            "channels.members_built": (self.members_built * per, "count/round"),
            "factorise.mu_s": (inc["factorise.mu"] * per, "s/round"),
            "factorise.extract_self_s": (own["factorise.extract"] * per, "s/round"),
            "factorise.correct_self_s": (own["factorise.correct"] * per, "s/round"),
            "factorise.membership_s": (inc["factorise.membership"] * per, "s/round"),
            "factorise.membership_calls": (calls["factorise.membership"] * per, "count/round"),
            "factorise.dist_self_s": (own["factorise.dist"] * per, "s/round"),
            "norms.cb_s": (inc["norms.cb"] * per, "s/round"),
            "norms.cb_calls": (calls["norms.cb"] * per, "count/round"),
            "norms.eigh_calls": (self.eigh_in_cb * per, "count/round"),
            "norms.superop_s": (inc["norms.superop"] * per, "s/round"),
            "fileio.load_s": (inc["fileio.load"] * per, "s/round"),
            "fileio.save_s": (inc["fileio.save"] * per, "s/round"),
            "fileio.bytes_written": (self.bytes_written * per, "B/round"),
            "cli.self_s": (own["cli.main"] * per, "s/round"),
            "channels.delta_compress_peak_mb": (self.delta_compress_peak / 2 ** 20, "MB"),
        }
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

