"""In-memory span tracing of lrcav's layers, installed from outside the package.

Every traced function is wrapped at each place it is reachable: the
module that defines it and every lrcav module that imported it by name
(``analysis`` holds its own ``rref``, ``shortening`` its own
``nullspace``, ...).  ``FieldTower`` and ``LinearCode`` methods are
wrapped on the class.  A traced function that no longer exists under
its listed name raises ``TraceTargetMissing`` at install time, so a
rename in ``src/`` fails the benchmark instead of silently dropping a
span.

A span records its name, start, end, parent span and operation id.  A
span's self time is its duration minus the time covered by its child
spans.  Spans are kept in memory (up to ``SPAN_CAP``) and written out
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import lrcav

# (span name, lrcav module, attribute); a dotted attribute is a method
# wrapped on its class.  Two functions may share one span name.
SPANS = [
    ("galois.tower_mul", "galois", "FieldTower.mul"),
    ("galois.frobenius", "galois", "FieldTower.frobenius"),
    ("galois.tower_inv", "galois", "FieldTower.inv"),
    ("galois.is_irreducible", "galois", "is_irreducible"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.rank_over_base", "linalg", "rank_over_base"),
    ("gabidulin.gab_encode", "gabidulin", "gab_encode"),
    ("gabidulin.moore_interpolate", "gabidulin", "moore_interpolate"),
    ("constructions.encode_composite", "constructions", "encode_composite"),
    ("constructions.composite_erasure_decode", "constructions",
     "composite_erasure_decode"),
    ("constructions.select_independent_survivors", "constructions",
     "select_independent_survivors"),
    ("constructions.survivor_rank", "constructions", "survivor_rank"),
    ("constructions.assemble", "constructions", "assemble_expander_code"),
    ("constructions.assemble", "constructions", "assemble_concatenated"),
    ("analysis.min_distance", "analysis", "min_distance"),
    ("analysis.verify_availability", "analysis", "verify_availability"),
    ("analysis.erasure_correctable", "analysis", "erasure_correctable"),
    ("analysis.erasure_monte_carlo", "analysis", "erasure_monte_carlo"),
    ("shortening.enumerate_local_checks", "shortening", "enumerate_local_checks"),
    ("shortening.closure", "shortening", "closure"),
    ("shortening.build_shortening_set", "shortening", "build_shortening_set"),
    ("bounds.rate_curves", "bounds", "rate_curves"),
    ("bounds.gamma_for_delta", "bounds", "gamma_for_delta"),
    ("bounds.expansion_delta", "bounds", "expansion_delta"),
    ("cli.load_artifact", "cli", "load_artifact"),
    ("cli.main", "cli", "main"),
    ("cli.save_artifact", "cli", "save_artifact"),
]

# Exhaustive enumeration is a generator; its yields are counted, not spanned.
CODEWORDS = ("constructions", "LinearCode.codewords")


SPAN_CAP = 100_000   # spans kept per run; later ones are counted as dropped


class TraceTargetMissing(RuntimeError):
    """A traced lrcav function is no longer where SPANS says it is."""


class Tracer:
    """Span recorder; wrappers call through untouched while it is inactive."""

    def __init__(self):
        self.active = False
        self.op_id = -1               # -1 marks set-up work
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()       # work counters taken at layer boundaries
        self.spans = []
        self.dropped = 0
        self._open = Counter()
        self._stack = []              # [span id, name, parent id, start, child time]
        self._next_id = 0
        self._t0 = time.perf_counter()

    @contextmanager
    def paused(self):
        """Run the enclosed calls (e.g. output checks) without recording."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [tracer._next_id, name, parent, time.perf_counter(), 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(time.perf_counter())
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def _close(self, end: float) -> None:
        sid, name, parent, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][4] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start - self._t0, end - self._t0,
                               parent, self.op_id))
        else:
            self.dropped += 1

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def write(self, path: str, header: dict) -> None:
        """Write the recorded spans as JSON lines after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans),
                                     dropped=self.dropped,
                                     fields=["id", "name", "start_s", "end_s",
                                             "parent", "op"])) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counters taken from a traced call's result ------------------------------

def _on_decode(tracer, result):
    tracer.counts["decode.attempted"] += 1
    tracer.counts["decode.recovered"] += result is not None
    if tracer.inside("analysis.erasure_monte_carlo"):
        tracer.counts["mc_full_decodes"] += 1


def _on_monte_carlo(tracer, stats):
    # the concatenated code adds one adversarial whole-block trial
    tracer.counts["mc_trials"] += stats.trials + (stats.adversarial_success is not None)


def _on_nullspace(tracer, result):
    if tracer.inside("shortening.enumerate_local_checks"):
        tracer.counts["supports_scanned"] += 1   # one nullspace per support


def _on_local_checks(tracer, checks):
    tracer.counts["checks_found"] += len(checks.checks)


def _on_rate_curves(tracer, rows):
    tracer.counts["curve_points"] += len(rows)


_HOOKS = {
    "constructions.composite_erasure_decode": _on_decode,
    "analysis.erasure_monte_carlo": _on_monte_carlo,
    "linalg.nullspace": _on_nullspace,
    "shortening.enumerate_local_checks": _on_local_checks,
    "bounds.rate_curves": _on_rate_curves,
}


# -- installing the wrappers --------------------------------------------------

def _lrcav_modules():
    # lrcav.__main__ is skipped: importing it runs the CLI.
    return [importlib.import_module(f"lrcav.{info.name}")
            for info in pkgutil.iter_modules(lrcav.__path__)
            if not info.name.startswith("__")]


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) for one SPANS entry, or raise."""
    try:
        owner = importlib.import_module(f"lrcav.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if path:
            return owner, leaf, owner.__dict__[leaf]
        return owner, leaf, getattr(owner, leaf)
    except (ImportError, AttributeError, KeyError) as exc:
        raise TraceTargetMissing(
            f"traced function lrcav.{module}.{attr} not found ({exc}); "
            "update perfbench/tracing.py SPANS") from exc


def install(tracer: Tracer):
    """Wrap every traced function everywhere it is bound; returns the undo list."""
    modules = _lrcav_modules()
    patches = []
    for name, module, attr in SPANS:
        owner, leaf, fn = _resolve(module, attr)
        wrapped = tracer.wrap(name, fn)
        if "." in attr:
            patches.append((owner, leaf, fn))
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules:
            for bound, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, bound, fn))
                    setattr(mod, bound, wrapped)

    owner, leaf, gen = _resolve(*CODEWORDS)

    @functools.wraps(gen)
    def codewords(self):
        for cw in gen(self):
            if tracer.active:
                tracer.counts["codewords_enumerated"] += 1
            yield cw

    patches.append((owner, leaf, gen))
    setattr(owner, leaf, codewords)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def recording(tracer: Tracer):
    """Install the wrappers and record for the duration of the block."""
    patches = install(tracer)
    tracer.active = True
    try:
        yield tracer
    finally:
        tracer.active = False
        uninstall(patches)


# -- per-layer metrics --------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)}."""
    c = tracer.counts
    out = {
        "constructions.decode.recovered_ratio":
            (_ratio(c["decode.recovered"], c["decode.attempted"]), "ratio"),
        "analysis.codewords_enumerated": (c["codewords_enumerated"], "count"),
        "analysis.mc_trials": (c["mc_trials"], "count"),
        "analysis.mc_full_decodes": (c["mc_full_decodes"], "count"),
        "shortening.supports_scanned": (c["supports_scanned"], "count"),
        "shortening.checks_found": (c["checks_found"], "count"),
        "shortening.check_yield":
            (_ratio(c["checks_found"], c["supports_scanned"]), "ratio"),
        "bounds.expansion_delta_per_point":
            (_ratio(tracer.calls["bounds.expansion_delta"], c["curve_points"]),
             "calls/point"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = (tracer.calls[span], "count")
        elif kind == "self_s":
            out[metric] = (tracer.self_s[span], "s")
    return {name: out[name] for name in PER_LAYER}


def _expand(names):
    out = []
    for name in names:
        if name.endswith(".*"):
            out += [name[:-1] + "calls", name[:-1] + "self_s"]
        else:
            out.append(name)
    return out


# Per-layer metrics in BENCHMARK.json order; "x.*" stands for x.calls and x.self_s.
PER_LAYER = _expand([
    "galois.tower_mul.*", "galois.frobenius.*", "galois.tower_inv.*",
    "galois.is_irreducible.*",
    "linalg.solve.*", "linalg.rref.*", "linalg.nullspace.*",
    "linalg.rank_over_base.*",
    "gabidulin.gab_encode.*", "gabidulin.moore_interpolate.*",
    "constructions.encode_composite.self_s",
    "constructions.composite_erasure_decode.self_s",
    "constructions.select_independent_survivors.self_s",
    "constructions.survivor_rank.*", "constructions.assemble.self_s",
    "constructions.decode.recovered_ratio",
    "analysis.min_distance.*", "analysis.codewords_enumerated",
    "analysis.verify_availability.self_s", "analysis.erasure_correctable.*",
    "analysis.erasure_monte_carlo.self_s", "analysis.mc_trials",
    "analysis.mc_full_decodes",
    "shortening.enumerate_local_checks.self_s", "shortening.supports_scanned",
    "shortening.checks_found", "shortening.check_yield",
    "shortening.closure.self_s", "shortening.build_shortening_set.self_s",
    "bounds.rate_curves.self_s", "bounds.gamma_for_delta.*",
    "bounds.expansion_delta.*", "bounds.expansion_delta_per_point",
    "cli.load_artifact.self_s", "cli.main.self_s", "cli.save_artifact.self_s",
    "trace.overhead_frac",
])
