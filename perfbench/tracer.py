"""In-memory span tracer that wraps trotterlab's public functions.

The package binds most cross-module calls with ``from .x import y``, so a
function has to be replaced at every binding site, not only in the module
that defines it: ``evolve.dft_cols`` and ``fourier.dft_cols`` are separate
names for one function. ``BINDINGS`` lists each site together with the span
group its calls are charged to. One wrapper is made per original function and
shared by all of its sites.

A span records its name, group, start, end, parent span and run id. Spans
stay in memory until the traced process writes them out at exit.
``aggregate`` turns one run's spans into the per-layer metrics: time metrics
are self time (span duration minus the part covered by child spans), and
counts are exact.
"""

from __future__ import annotations

import hashlib
import importlib
import time

import numpy as np

# (module, attribute, group). The group's first component is the layer.
BINDINGS = [
    ("cli", "parse_config", "cli.parse"),
    ("cli", "evaluate_criteria", "cli.criteria"),
    ("experiments", "SweepTable.csv_text", "cli.write_csv"),
    ("experiments", "sweep_timestep", "experiments.sweep"),
    ("experiments", "sweep_h", "experiments.sweep"),
    ("experiments", "commutator_scan", "experiments.sweep"),
    ("experiments", "calculus_suite", "experiments.sweep"),
    ("experiments", "query_count_study", "experiments.sweep"),
    ("experiments", "query_count", "experiments.sweep"),
    ("experiments", "fit_loglog_slope", "experiments.fit"),
    ("experiments", "build_pair", "hamiltonian.build"),
    ("experiments", "cosine_observable", "hamiltonian.build"),
    ("experiments", "momentum_fd_observable", "hamiltonian.build"),
    ("experiments", "momentum_observable", "hamiltonian.build"),
    ("experiments", "gaussian_wavepacket", "hamiltonian.build"),
    ("experiments", "observable_error", "evolve.other"),
    ("experiments", "expectation_error", "evolve.other"),
    ("experiments", "unitary_error", "evolve.unitary_walk"),
    ("experiments", "exact_unitary", "evolve.other"),
    ("experiments", "spectral_norm", "numkit.svd"),
    ("evolve", "heisenberg_trotter", "evolve.trotter_conj"),
    ("evolve", "heisenberg_exact", "evolve.exact_conj"),
    ("evolve", "evolve_state", "evolve.state_step"),
    ("evolve", "exact_unitary", "evolve.other"),
    ("evolve", "dft_cols", "fourier.fft"),
    ("evolve", "idft_cols", "fourier.fft"),
    ("evolve", "expm_hermitian", "numkit.expm"),
    ("evolve", "spectral_norm", "numkit.svd"),
    ("fourier", "dft_cols", "fourier.fft"),
    ("fourier", "idft_cols", "fourier.fft"),
    ("fourier", "_forward", "fourier.fft"),
    ("fourier", "_inverse", "fourier.fft"),
    ("fourier", "circulant", "fourier.build"),
    ("fourier", "materialize", "fourier.build"),
    ("numkit", "hermitian_eig", "numkit.eigh"),
    ("numkit", "expm_hermitian", "numkit.expm"),
    ("numkit", "spectral_norm", "numkit.svd"),
    ("quantize", "quantize", "quantize.quantize"),
    ("quantize", "composition_remainder", "quantize.remainder"),
    ("quantize", "commutator_remainder", "quantize.remainder"),
    ("quantize", "cv_gap", "quantize.remainder"),
    ("quantize", "egorov_remainder", "quantize.remainder"),
    ("quantize", "expm_hermitian", "numkit.expm"),
    ("quantize", "spectral_norm", "numkit.svd"),
    ("quantize", "pullback_split_flow", "symbols.pullback"),
    ("quantize", "product", "symbols.algebra"),
    ("quantize", "poisson_bracket", "symbols.algebra"),
    ("symbols", "product", "symbols.algebra"),
]

# Step applications per call: heisenberg_trotter conjugates (two passes per
# step), unitary_error and evolve_state walk once per step.
_STEP_PASSES = {"evolve.trotter_conj": 2, "evolve.unitary_walk": 1, "evolve.state_step": 1}

SELF_TIME_METRICS = {
    "cli.parse_s": "cli.parse",
    "cli.write_csv_s": "cli.write_csv",
    "cli.criteria_s": "cli.criteria",
    "experiments.self_s": "experiments.sweep",
    "experiments.fit_s": "experiments.fit",
    "hamiltonian.build_s": "hamiltonian.build",
    "evolve.trotter_conj_s": "evolve.trotter_conj",
    "evolve.unitary_walk_s": "evolve.unitary_walk",
    "evolve.state_step_s": "evolve.state_step",
    "evolve.exact_conj_s": "evolve.exact_conj",
    "evolve.self_s": "evolve.other",
    "fourier.fft_s": "fourier.fft",
    "numkit.eigh_s": "numkit.eigh",
    "numkit.svd_s": "numkit.svd",
    "numkit.expm_s": "numkit.expm",
    "quantize.quantize_s": "quantize.quantize",
    "quantize.remainder_s": "quantize.remainder",
    "symbols.pullback_s": "symbols.pullback",
    "symbols.algebra_s": "symbols.algebra",
}

CALL_METRICS = {
    "hamiltonian.build_calls": "hamiltonian.build",
    "fourier.fft_calls": "fourier.fft",
    "numkit.eigh_calls": "numkit.eigh",
    "numkit.svd_calls": "numkit.svd",
    "numkit.expm_calls": "numkit.expm",
    "quantize.quantize_calls": "quantize.quantize",
}

# Dominant layers each workload is chosen for: share of the traced cli.main span.
SHARES = {
    "share.fourier_evolve": ("fourier", "evolve"),
    "share.numkit": ("numkit",),
    "share.quantize_symbols": ("quantize", "symbols"),
}

ROOT = "cli.main"
HOOK = "trace.hook"


class Tracer:
    """Span recorder for one traced run; install() patches the package."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.points = 0
        self.unbound: list[str] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def _open(self, name: str, group: str) -> dict:
        rec = {"id": len(self.spans), "name": name, "group": group,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, group: str, fn, *args, **kwargs):
        """Run fn inside a span; record the counts its group needs."""
        if group == "numkit.eigh":
            # Digest the input outside the eigh span so the hashing shows as
            # tracing overhead instead of eigh time.
            hook = self._open(HOOK, HOOK)
            digest = hashlib.blake2b(np.ascontiguousarray(args[0]).tobytes(),
                                     digest_size=16).hexdigest()
            self._close(hook)
        rec = self._open(name, group)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        if group == "fourier.fft":
            rec["bytes"] = int(np.asarray(args[0]).nbytes + np.asarray(result).nbytes)
        elif group in _STEP_PASSES:
            plan = next(a for a in (*args, *kwargs.values()) if hasattr(a, "scheme"))
            rec["steps"] = _STEP_PASSES[group] * plan.n
        elif group == "numkit.eigh":
            rec["digest"] = digest
        return result

    def _wrap(self, name: str, group: str, fn):
        key = id(fn)
        if key not in self._wrappers:
            def wrapper(*args, **kwargs):
                return self.call(name, group, fn, *args, **kwargs)
            wrapper.__wrapped__ = fn
            self._wrappers[key] = wrapper
        return self._wrappers[key]

    def install(self) -> None:
        """Replace every binding in BINDINGS and count sweep points."""
        modules = {m: importlib.import_module(f"trotterlab.{m}") for m, _, _ in BINDINGS}
        for mod_name, attr, group in BINDINGS:
            owner, leaf = modules[mod_name], attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.unbound.append(f"{mod_name}.{attr}")
                continue
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            setattr(owner, leaf, self._wrap(name, group, fn))
        xp = modules["experiments"]
        # The observable table holds direct references, lambdas excepted.
        for key, fn in list(xp.OBSERVABLES.items()):
            if id(fn) in self._wrappers:
                xp.OBSERVABLES[key] = self._wrappers[id(fn)]
        mapper = getattr(xp, "_map_ordered", None)
        if mapper is None:
            self.unbound.append("experiments._map_ordered")
        else:
            def counting_map(fn, items, threads):
                items = list(items)
                self.points += len(items)
                return mapper(fn, items, threads)
            xp._map_ordered = counting_map

    def root(self, fn, *args):
        """Run the whole command inside the root span."""
        return self.call(ROOT, ROOT, fn, *args)

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "points": self.points,
                "unbound": self.unbound}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def aggregate(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds, counts exact)."""
    spans = trace["spans"]
    own = self_times(spans)
    by_group: dict[str, list[dict]] = {}
    for s in spans:
        by_group.setdefault(s["group"], []).append(s)

    def self_sum(group):
        return sum(own[s["id"]] for s in by_group.get(group, []))

    m = {name: self_sum(group) for name, group in SELF_TIME_METRICS.items()}
    m.update({name: len(by_group.get(group, [])) for name, group in CALL_METRICS.items()})
    m["experiments.points"] = trace["points"]
    m["evolve.step_applications"] = sum(s.get("steps", 0) for s in spans)
    ffts = by_group.get("fourier.fft", [])
    m["fourier.fft_bytes"] = sum(s["bytes"] for s in ffts)
    m["fourier.fft_gbps"] = m["fourier.fft_bytes"] / m["fourier.fft_s"] / 1e9 if ffts else 0.0
    eighs = by_group.get("numkit.eigh", [])
    m["numkit.eigh_distinct_ratio"] = (len({s["digest"] for s in eighs}) / len(eighs)
                                       if eighs else 0.0)
    root = next(s for s in spans if s["group"] == ROOT)
    root_s = root["end"] - root["start"]
    m["trace.root_s"] = root_s
    m["trace.hook_s"] = self_sum(HOOK)
    for name, layers in SHARES.items():
        m[name] = sum(own[s["id"]] for s in spans
                      if s["group"].split(".")[0] in layers) / root_s
    return m
