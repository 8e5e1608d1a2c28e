"""Every per-layer metric is recorded where predicted and zero where bypassed.

A traced function renamed or moved in ``src/`` must fail here (or at
install time) instead of silently reporting zero calls.
"""

import json
import os

import pytest

import tracing
from run import ROOT, HERE as BENCH, Recorder
from workloads import WORKLOADS

# metric -> (workloads that must record it, workloads that bypass it)
EXPECT = {
    "galois.tower_mul": (("decode", "verify"), ("curves",)),
    "galois.frobenius": (("decode", "verify"), ("curves",)),
    "galois.tower_inv": (("decode", "verify"), ("curves",)),
    "galois.is_irreducible": (("decode", "verify"), ("curves",)),
    "linalg.solve": (("decode", "verify"), ("curves",)),
    "linalg.rref": (("decode", "verify"), ("curves",)),
    "linalg.nullspace": (("verify",), ("curves",)),
    "linalg.rank_over_base": (("decode", "verify"), ("curves",)),
    "gabidulin.gab_encode": (("decode",), ("curves",)),
    "gabidulin.moore_interpolate": (("decode",), ("curves",)),
    "constructions.encode_composite": (("decode",), ("curves",)),
    "constructions.composite_erasure_decode": (("decode",), ("curves",)),
    "constructions.select_independent_survivors": (("decode",), ("curves",)),
    "constructions.survivor_rank": (("verify",), ("decode", "curves")),
    "constructions.assemble": (("decode", "verify"), ("curves",)),
    "constructions.decode.recovered_ratio": (("decode",), ("curves",)),
    "analysis.min_distance": (("verify",), ("decode", "curves")),
    "analysis.codewords_enumerated": (("verify",), ("decode", "curves")),
    "analysis.verify_availability": (("verify",), ("decode", "curves")),
    "analysis.erasure_correctable": (("verify",), ("decode", "curves")),
    "analysis.erasure_monte_carlo": (("verify",), ("decode", "curves")),
    "analysis.mc_trials": (("verify",), ("decode", "curves")),
    "analysis.mc_full_decodes": (("verify",), ("decode", "curves")),
    "shortening.enumerate_local_checks": (("verify",), ("decode", "curves")),
    "shortening.supports_scanned": (("verify",), ("decode", "curves")),
    "shortening.checks_found": (("verify",), ("decode", "curves")),
    "shortening.check_yield": (("verify",), ("decode", "curves")),
    "shortening.closure": (("verify",), ("decode", "curves")),
    "shortening.build_shortening_set": (("verify",), ("decode", "curves")),
    "bounds.rate_curves": (("curves",), ("decode", "verify")),
    "bounds.gamma_for_delta": (("curves",), ("decode", "verify")),
    "bounds.expansion_delta": (("curves",), ("decode", "verify")),
    "bounds.expansion_delta_per_point": (("curves",), ("decode", "verify")),
    "cli.load_artifact": (("verify",), ("decode", "curves")),
    "cli.main": (("verify", "curves"), ("decode",)),
    "cli.save_artifact": (("verify",), ("decode", "curves")),
}


def layer(metric: str) -> str:
    """Span or counter name behind a per-layer metric."""
    return metric.rsplit(".", 1)[0] if metric.endswith((".calls", ".self_s")) else metric


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Set-up plus the first block of each workload, traced."""
    out = {}
    for name, cls in WORKLOADS.items():
        tracer, wl, rec = tracing.Tracer(), cls(), Recorder()
        with tracing.recording(tracer):
            wl.setup(str(tmp_path_factory.mktemp(name)))
            rec.run(wl.block(1, 0), tracer)
        assert rec.failed == 0, rec.failures
        out[name] = (tracer, tracing.layer_metrics(tracer, 0.0))
    return out


def recorded(tracer, metrics, metric) -> float:
    """Calls for a span-backed metric, the value for a counter."""
    name = layer(metric)
    if any(span == name for span, _, _ in tracing.SPANS):
        return tracer.calls[name]
    return metrics[metric][0]


def test_every_layer_metric_has_a_prediction():
    layers = {layer(m) for m in tracing.PER_LAYER} - {"trace.overhead_frac"}
    assert layers == set(EXPECT)


@pytest.mark.parametrize("metric", [m for m in tracing.PER_LAYER
                                    if m != "trace.overhead_frac"])
def test_metric_recorded_where_used_and_zero_where_bypassed(traced, metric):
    uses, bypasses = EXPECT[layer(metric)]
    for name in uses:
        assert recorded(*traced[name], metric) > 0, f"{metric} not recorded on {name}"
    for name in bypasses:
        assert recorded(*traced[name], metric) == 0, f"{metric} recorded on {name}"


def test_uninstall_restores_every_binding():
    from lrcav import analysis, galois, linalg, shortening
    before = (linalg.rref, analysis.rref, shortening.nullspace, galois.FieldTower.mul)
    tracing.uninstall(tracing.install(tracing.Tracer()))
    assert (linalg.rref, analysis.rref, shortening.nullspace, galois.FieldTower.mul) == before


def test_missing_target_fails_loudly():
    with pytest.raises(tracing.TraceTargetMissing):
        tracing._resolve("linalg", "rref_renamed")
    with pytest.raises(tracing.TraceTargetMissing):
        tracing._resolve("galois", "FieldTower.mul_renamed")


def test_benchmark_json_lists_the_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == tracing.PER_LAYER
    units = {name: unit for name, (_, unit) in
             tracing.layer_metrics(tracing.Tracer(), 0.0).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    with open(os.path.join(BENCH, "README.md")) as fh:
        doc = fh.read()
    assert all(f"`{name}" in doc for name in EXPECT)
