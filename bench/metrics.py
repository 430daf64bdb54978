"""Metric definitions, the layer-to-end-to-end map, and per-layer aggregation.

``BENCHMARK.json`` lists the same names and units; ``test_bench.py``
checks that the two agree.
"""

from __future__ import annotations

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solved_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "solved_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "specfun.jv_points": ("count", "lower"),
    "specfun.jv_self_s": ("s", "lower"),
    "specfun.jv_ns_per_point": ("ns", "lower"),
    "identity.validity_checks_per_op": ("count", "lower"),
    "identity.beat_enum_calls": ("count", "lower"),
    "identity.beat_enum_self_s": ("s", "lower"),
    "identity.analysis_self_s": ("s", "lower"),
    "identity.terms_self_s": ("s", "lower"),
    "summation.evaluate_calls": ("count", "lower"),
    "summation.terms": ("count", "lower"),
    "summation.terms_per_solved": ("count", "lower"),
    "summation.evaluate_self_s": ("s", "lower"),
    "summation.self_ns_per_term": ("ns", "lower"),
    "summation.bound_self_s": ("s", "lower"),
    "summation.accelerated_frac": ("frac", "lower"),
    "summation.unreachable": ("count", "lower"),
    "quadrature.integrate_calls": ("count", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.integrate_self_s": ("s", "lower"),
    "quadrature.ns_per_panel": ("ns", "lower"),
    "quadrature.diagnostics_self_s": ("s", "lower"),
    "cli.interp_start_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.command_s": ("s", "lower"),
    "cli.run_sweep_self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

#: which end-to-end metric on which workload each layer metric should move,
#: and where the prediction is no change
MOVES = {
    "specfun": {
        "metrics": ["specfun.jv_points", "specfun.jv_self_s", "specfun.jv_ns_per_point"],
        "moves": {"deep_sum": ["solved_per_s", "op_ms_p50"], "tol_corpus": ["op_ms_p90"]},
        "partial": {"panel_sweep": ["op_ms_p50"]},
        "flat": {"cli_cold": ["op_ms_p50"]},
    },
    "identity.analysis": {
        "metrics": ["identity.validity_checks_per_op", "identity.beat_enum_calls",
                    "identity.beat_enum_self_s", "identity.analysis_self_s"],
        "moves": {"panel_sweep": ["op_ms_p50"], "tol_corpus": ["solved_per_s"]},
        "flat": {"deep_sum": ["solved_per_s", "op_ms_p50"]},
    },
    "identity.terms": {
        "metrics": ["identity.terms_self_s"],
        "moves": {"deep_sum": ["solved_per_s", "op_ms_p50"]},
    },
    "summation": {
        "metrics": ["summation.evaluate_calls", "summation.terms",
                    "summation.terms_per_solved", "summation.evaluate_self_s",
                    "summation.self_ns_per_term", "summation.bound_self_s",
                    "summation.accelerated_frac", "summation.unreachable"],
        "moves": {"tol_corpus": ["solved_frac", "solved_per_s"],
                  "deep_sum": ["solved_per_s", "op_ms_p50"]},
        "note": "terms_per_solved and unreachable move tol_corpus; self_ns_per_term "
                "moves deep_sum. Turning a fast ToleranceUnreachable into a slower "
                "success raises solved_frac but can raise op_ms_p90.",
    },
    "quadrature": {
        "metrics": ["quadrature.integrate_calls", "quadrature.panels",
                    "quadrature.integrate_self_s", "quadrature.ns_per_panel",
                    "quadrature.diagnostics_self_s"],
        "moves": {"panel_sweep": ["op_ms_p50"], "cli_cold": ["op_ms_p50"]},
        "flat": {"deep_sum": ["solved_per_s", "op_ms_p50"],
                 "tol_corpus": ["solved_per_s", "op_ms_p50"]},
    },
    "cli": {
        "metrics": ["cli.interp_start_s", "cli.import_s", "cli.command_s",
                    "cli.run_sweep_self_s"],
        "moves": {"cli_cold": ["op_ms_p50"], "*": ["setup_s"]},
        "flat": {"deep_sum": ["solved_per_s"]},
    },
}

#: span names that make up each traced layer group
GROUPS = {
    "jv": ("specfun.jv_array",),
    "analysis": ("identity.check_validity", "identity.integrand_conditions_ok",
                 "identity.rescale", "identity.make_spec"),
    "beat_enum": ("identity.beat_exists", "identity.beat_frequencies",
                  "identity.aliased_beat_frequencies"),
    "terms": ("identity.zero_limit", "identity.summand", "identity.summand_terms",
              "identity.integrand_array", "identity.power_product_array"),
    "bound": ("summation.required_terms", "summation.truncation_bound",
              "summation.envelope_constant"),
    "diagnostics": ("quadrature.correction_term", "quadrature.correction_term_power_product",
                    "quadrature.band_limit_check"),
}


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 < q < 100)."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, ops: int, solved: int, overhead_frac: float,
                  cli_probe: dict) -> dict[str, float]:
    """Per-layer metrics from a tracer summary of one traced run."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def group(name, key):
        return sum(get(span, key) for span in GROUPS[name])

    jv_points, jv_self = get("specfun.jv_array", "count"), get("specfun.jv_array", "self_s")
    calls = get("summation.evaluate", "calls")
    terms = get("summation.evaluate", "terms")
    ev_self = get("summation.evaluate", "self_s")
    panels, int_self = get("quadrature.integrate", "count"), get("quadrature.integrate", "self_s")
    return {
        "specfun.jv_points": jv_points,
        "specfun.jv_self_s": jv_self,
        "specfun.jv_ns_per_point": _ratio(jv_self * 1e9, jv_points),
        "identity.validity_checks_per_op": _ratio(get("identity.check_validity", "calls"), ops),
        "identity.beat_enum_calls": get("identity.beat_exists", "calls")
        + get("identity.beat_frequencies", "calls"),
        "identity.beat_enum_self_s": group("beat_enum", "self_s"),
        "identity.analysis_self_s": group("analysis", "self_s"),
        "identity.terms_self_s": group("terms", "self_s"),
        "summation.evaluate_calls": calls,
        "summation.terms": terms,
        "summation.terms_per_solved": _ratio(terms, solved),
        "summation.evaluate_self_s": ev_self,
        "summation.self_ns_per_term": _ratio(ev_self * 1e9, terms),
        "summation.bound_self_s": group("bound", "self_s"),
        "summation.accelerated_frac": _ratio(get("summation.evaluate", "accelerated"), calls),
        "summation.unreachable": summary.get("summation.evaluate", {}).get(
            "errors", {}).get("ToleranceUnreachable", 0),
        "quadrature.integrate_calls": get("quadrature.integrate", "calls"),
        "quadrature.panels": panels,
        "quadrature.integrate_self_s": int_self,
        "quadrature.ns_per_panel": _ratio(int_self * 1e9, panels),
        "quadrature.diagnostics_self_s": group("diagnostics", "self_s"),
        "cli.interp_start_s": cli_probe["interp_start_s"],
        "cli.import_s": cli_probe["import_s"],
        "cli.command_s": cli_probe["command_s"],
        "cli.run_sweep_self_s": get("cli.run_sweep", "self_s"),
        "trace.overhead_frac": overhead_frac,
    }
