"""Per-layer tracing of rcontinuity from outside the package.

``Tracer.install`` replaces public module attributes and class methods of the
imported package with timing wrappers, in this process only, and
``Tracer.uninstall`` puts the originals back; nothing under ``src/`` changes.

Every wrapped call adds to a per-key call count and *self* time: its duration
minus the durations of the wrapped calls made inside it.  Calls at layer
boundaries (experiments, estimators, solvers, certificates, writers) also
record a span with name, start, end, parent and job; the hot inner calls
(map evaluation, excess, region distance, prox, catalog oracles), which run
10^4 to 10^5 times per pass, record counters only.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_SOLVERS = {
    "run_ppa": "ppa",
    "run_gdm": "gdm",
    "run_qpower_prox": "qpower",
    "run_dca": "dca",
    "run_shifted_ppa": "shifted-ppa",
}
_ESTIMATORS = {
    "estimate_modulus": "analysis.estimate_modulus",
    "fit_holder": "analysis.fit_holder",
    "lojasiewicz_fit": "analysis.lojasiewicz",
    "check_plk_exponent": "analysis.plk",
    "closed_graph_test": "analysis.closed_graph",
    "calmness_estimate": "analysis.calmness",
    "certify_inverse_lipschitz": "analysis.inverse_lipschitz",
}
_CHECKS = {
    "check_h1": "certify.checks",
    "check_h2": "certify.checks",
    "check_h3": "certify.checks",
    "check_rclass": "certify.checks",
    "check_h4": "certify.h4",
    "distance_trace": "certify.distance_trace",
}
_WRITERS = {
    "trace_to_csv": ("serialize.trace_csv", 1),
    "modulus_to_csv": ("serialize.json_csv", 1),
    "write_json": ("serialize.json_csv", 0),
    "sha256_file": ("serialize.sha256", None),
}
#: Oracle fields of a catalog entry that ``catalog.oracle`` counts.
_ORACLES = ("f", "grad", "jac")


class Tracer:
    def __init__(self):
        self._patches: List[tuple] = []
        self.spans: List[dict] = []
        self.job = ""
        self.reset()

    def reset(self) -> None:
        """Zero the counters; spans are kept for the whole run."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # frames: [child seconds, span id or None]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, key: str, fn: Callable, span: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """Timing wrapper of ``fn`` that books its self time under ``key``."""
        tracer = self
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0, None]
            if span:
                frame[1] = len(tracer.spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                tracer.spans.append({"id": frame[1], "parent": parent, "name": key,
                                     "job": tracer.job, "start": 0.0, "end": 0.0})
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[key] += dur - frame[0]
                tracer.total_s[key] += dur
                tracer.calls[key] += 1
                if stack:
                    stack[-1][0] += dur
                if span:
                    tracer.spans[frame[1]].update(start=t0, end=t1)
            if after is not None:
                after(tracer, args, out)
            return out

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def root(self, job: str):
        """Context for one job: tags its spans with the job's name."""
        self.job = job
        try:
            yield
        finally:
            self.job = ""

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap the layers of the imported ``rcontinuity`` package."""
        from rcontinuity import analysis, catalog, certify, cli, geometry, serialize, setmap, solvers

        w = self.wrap
        self._patch(analysis, "excess", w("geometry.excess", analysis.excess, after=_count_pairs))
        for module in (analysis, geometry):
            self._patch(module, "sample_window", w("geometry.sample_window", module.sample_window))
        self._patch(geometry.Region, "distance", w("geometry.region_distance", geometry.Region.distance))
        self._patch(setmap.SetValuedMap, "eval", w("setmap.eval", setmap.SetValuedMap.eval, after=_count_points))
        self._patch(setmap.SetValuedMap, "member_dist",
                    w("setmap.member_dist", setmap.SetValuedMap.member_dist))
        self._patch(setmap.ProxOracle, "resolve", w("setmap.prox", setmap.ProxOracle.resolve))
        for name, key in _ESTIMATORS.items():
            after = _count_samples if name == "estimate_modulus" else None
            self._patch(analysis, name, w(key, getattr(analysis, name), span=True, after=after))
        for name, alg in _SOLVERS.items():
            self._patch(solvers, name, w(f"solvers.{alg}", getattr(solvers, name), span=True,
                                         after=_iterations(alg)))
        for name, key in _CHECKS.items():
            after = None if name == "distance_trace" else _count_steps
            self._patch(certify, name, w(key, getattr(certify, name), span=True, after=after))
        for name, (key, path_arg) in _WRITERS.items():
            after = None if path_arg is None else _bytes_written(path_arg)
            self._patch(serialize, name, w(key, getattr(serialize, name), span=True, after=after))
        self._patch(cli, "run_experiment", w("cli.run", cli.run_experiment, span=True))
        from_dict = cli.ExperimentConfig.__dict__["from_dict"].__func__
        self._patch(cli.ExperimentConfig, "from_dict", classmethod(w("cli.validate", from_dict, span=True)))
        lookup = catalog.catalog_lookup
        self._patch(catalog, "catalog_lookup", lambda name: self._traced_entry(lookup(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _traced_entry(self, entry):
        """A copy of a catalog entry whose f, grad, jac and dc h_grad are counted."""
        changes = {name: self.wrap("catalog.oracle", getattr(entry, name))
                   for name in _ORACLES if getattr(entry, name) is not None}
        if entry.dc is not None:
            changes["dc"] = dataclasses.replace(
                entry.dc, h_grad=self.wrap("catalog.oracle", entry.dc.h_grad))
        return dataclasses.replace(entry, **changes)


# -- counters booked after a wrapped call returns -------------------------------

def _count_pairs(tracer: Tracer, args, out) -> None:
    a, b = args[0], args[1]
    tracer.counts["geometry.excess_pairs"] += len(a) * (len(b) if hasattr(b, "is_empty") else 1)


def _count_points(tracer: Tracer, args, out) -> None:
    tracer.counts["setmap.eval_points"] += len(out)
    tracer.counts["setmap.eval_empty"] += out.is_empty


def _count_samples(tracer: Tracer, args, out) -> None:
    tracer.counts["analysis.modulus_samples"] += sum(out.sample_counts)


def _count_steps(tracer: Tracer, args, out) -> None:
    tracer.counts["certify.steps_checked"] += len(out.step_indices)


def _iterations(alg: str):
    def count(tracer: Tracer, args, out) -> None:
        tracer.counts[f"solvers.{alg}.iterations"] += len(out) - 1
    return count


def _bytes_written(path_arg: int):
    def count(tracer: Tracer, args, out) -> None:
        tracer.counts["serialize.bytes_written"] += os.path.getsize(args[path_arg])
    return count
