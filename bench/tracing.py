"""Spans and counters for the traced run.

The traced run replaces the program's public function objects with
wrappers, wherever a ptwell module binds them, and puts the originals back
when it ends.  Timed runs never install a wrapper.  Spans (id, name, start,
end, parent, request) and counts stay in memory until the run writes them
out.
"""
import collections
import sys
import time

# (metric name, unit); the traced run reports every one, 0 where a workload
# does not reach the layer
PER_LAYER = (
    ("spectral_core.find_critical_coupling.calls", "count"),
    ("spectral_core.find_critical_coupling.ms", "ms"),
    ("spectral_core.solve_complex_pair.calls", "count"),
    ("spectral_core.solve_complex_pair.ms", "ms"),
    ("spectral_core.kappa_condition_residual.calls", "count"),
    ("spectral_core.solve_real_spectrum.calls", "count"),
    ("spectral_core.solve_real_spectrum.ms", "ms"),
    ("spectral_core.matching_residual.calls", "count"),
    ("susy_hierarchy.build_hierarchy.calls", "count"),
    ("susy_hierarchy.build_hierarchy.ms", "ms"),
    ("susy_hierarchy.intertwine.calls", "count"),
    ("susy_hierarchy.intertwine.ms", "ms"),
    ("susy_hierarchy.potential_eval.calls", "count"),
    ("susy_hierarchy.potential_eval.ms", "ms"),
    ("susy_hierarchy.hierarchy_relations_check.ms", "ms"),
    ("wavefunctions.eigenfunction_eval.calls", "count"),
    ("wavefunctions.eigenfunction_eval.ms", "ms"),
    ("wavefunctions.pt_defect.ms", "ms"),
    ("oracle_verifier.mismatch.calls", "count"),
    ("oracle_verifier.mismatch.ms", "ms"),
    ("oracle_verifier.mismatch.first_ms", "ms"),
    ("oracle_verifier.find_spectrum_numeric.ms", "ms"),
    ("oracle_verifier.levels_per_mismatch", "ratio"),
    ("cli.startup_ms", "ms"),
    ("cli.main.ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
)

# Wrapped functions: "span" records a span per call, "count" only counts
# (residuals called hundreds of thousands of times per round).
WRAPPED = (
    ("spectral_core", "find_critical_coupling", "span"),
    ("spectral_core", "solve_complex_pair", "span"),
    ("spectral_core", "solve_real_spectrum", "span"),
    ("spectral_core", "kappa_condition_residual", "count"),
    ("spectral_core", "matching_residual", "count"),
    ("susy_hierarchy", "build_hierarchy", "span"),
    ("susy_hierarchy", "intertwine", "span"),
    ("susy_hierarchy", "hierarchy_relations_check", "span"),
    ("wavefunctions", "pt_defect", "span"),
    ("oracle_verifier", "mismatch", "span"),
    ("oracle_verifier", "find_spectrum_numeric", "span"),
    ("cli", "main", "span"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = collections.Counter()
        self.ms = collections.Counter()
        self.request = None
        self.levels_found = 0
        self.mismatch_first_ms = 0.0
        self._stack = []
        self._next_id = 0
        self._potentials = {}

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, name, sid, parent, t0, calls):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, t0, t1, parent, self.request))
        self.calls[name] += calls
        self.ms[name] += (t1 - t0) * 1e3
        return t1 - t0

    def span(self, name, calls=1):
        """Context manager for a span around the benchmark's own call into a layer."""
        return _Span(self, name, calls)

    def wrap(self, name, fn, kind):
        if kind == "count":
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self._close(name, sid, parent, t0, 1)
            if name == "oracle_verifier.mismatch" and id(args[0]) not in self._potentials:
                self._potentials[id(args[0])] = args[0]  # held so the id stays unique
                self.mismatch_first_ms += dt * 1e3
            elif name == "oracle_verifier.find_spectrum_numeric":
                self.levels_found += len(out)
            return out
        return spanned

    def metrics(self):
        """The value of every per-layer metric, by name."""
        values = {}
        for metric, _unit in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = self.calls[layer]
            elif stat == "ms":
                values[metric] = self.ms[layer]
        values["oracle_verifier.mismatch.first_ms"] = self.mismatch_first_ms
        mism = self.calls["oracle_verifier.mismatch"]
        values["oracle_verifier.levels_per_mismatch"] = self.levels_found / mism if mism else 0.0
        values["cli.startup_ms"] = 0.0  # set by the cli run, which times the processes
        values["cli.stdout_bytes"] = 0
        return values

    def self_ms(self):
        """Self time per span name: duration minus the time its child spans cover."""
        child = collections.Counter()
        by_id = {s[0]: s for s in self.spans}
        for sid, _name, t0, t1, parent, _req in self.spans:
            if parent is not None and parent in by_id:
                child[parent] += t1 - t0
        out = collections.Counter()
        for sid, name, t0, t1, _parent, _req in self.spans:
            out[name] += (t1 - t0 - child[sid]) * 1e3
        return dict(out)


class _Span:
    def __init__(self, tracer, name, calls):
        self.tracer, self.name, self.calls = tracer, name, calls

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.sid, self.parent, self.t0, self.calls)
        return False


def install(tracer, program):
    """Wrap every WRAPPED function in every ptwell module that binds it; returns an undo."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ptwell" or name.startswith("ptwell."))]
    undo = []
    for modname, fname, kind in WRAPPED:
        home = getattr(program, modname)
        if home is None:
            continue
        original = getattr(home, fname)
        wrapper = tracer.wrap(f"{modname}.{fname}", original, kind)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))

    def restore():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
    return restore
