"""Spans around calls into mixregime, recorded from outside the package.

The tracer replaces a function in the module that calls it (for example
``harness.qml_estimate``, the name harness looks up when a replication runs)
with a wrapper that records a span: name, start, end, parent span and a few
counts.  Spans are kept in memory and written out when the run ends.  The
package source is not edited, and every binding is restored on exit.

A binding that no longer exists, say after a refactor moves a call, is listed
in ``missing`` and its metrics read 0; the run goes on.
"""

from __future__ import annotations

import inspect
import json
import time


def _simulated(bound, out) -> dict:
    return {"obs": bound.arguments["T"] + bound.arguments["burn_in"]}


def _optimizer(bound, out) -> dict:
    return {"nit": int(out.nit), "nfev": int(out.nfev)}


def _replication(bound, out) -> dict:
    cap = bound.arguments["cfg"].estimator.em_max_iter
    return {"em_iter": out.n_em_iter, "em_capped": int(out.n_em_iter >= cap)}


def _hac(bound, out) -> dict:
    return {"lags": bound.arguments["info"]["n_lags"]}


def _collect_hac_info(bound) -> None:
    if bound.arguments.get("info") is None:
        bound.arguments["info"] = {}


def _frame_rows(bound, out) -> dict:
    """Rows of the regression frame: the switching AR conditions on y_0."""
    sample, spec = bound.arguments["sample"], bound.arguments["spec"]
    return {"rows": sample.T - (spec.form == "msar")}


# (calling module, attribute, span name, counts from (bound args, result),
#  hook that may adjust the bound arguments before the call)
BINDINGS = [
    ("harness", "run_experiment", "harness.experiment", None, None),
    ("harness", "run_replication", "harness.replication", _replication, None),
    ("harness", "write_replications_csv", "harness.io", None, None),
    ("harness", "summarize_csv", "harness.io", None, None),
    ("harness", "simulate_msar", "dgp.simulate", _simulated, None),
    ("harness", "simulate_hmm", "dgp.simulate", _simulated, None),
    ("harness", "qml_estimate", "estimator.qml", None, None),
    ("harness", "sandwich_cov", "inference.sandwich", None, None),
    ("estimator", "minimize", "estimator.bfgs", _optimizer, None),
    ("estimator", "quasi_loglik", "mixture.loglik", _frame_rows, None),
    ("estimator", "score", "mixture.score", _frame_rows, None),
    ("inference", "hessian", "mixture.hessian", _frame_rows, None),
    ("inference", "score_contributions", "mixture.score", _frame_rows, None),
    ("inference", "hac_middle", "inference.hac", _hac, _collect_hac_info),
    ("oracle", "pseudo_true_msar", "oracle.msar", None, None),
    ("oracle", "kl_check", "oracle.kl_check", None, None),
    ("oracle", "pseudo_true_weights", "oracle.weights", None, None),
    ("oracle", "simulate_msar", "dgp.simulate", _simulated, None),
    ("oracle", "simulate_hmm", "dgp.simulate", _simulated, None),
    ("oracle", "minimize", "oracle.bfgs", _optimizer, None),
    ("oracle", "loglik_terms", "mixture.loglik", _frame_rows, None),
    ("oracle", "score_contributions", "mixture.score", _frame_rows, None),
    ("oracle", "sandwich_cov", "inference.sandwich", None, None),
]


class Tracer:
    """Context manager that wraps BINDINGS in the given modules."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported module
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        self.missing = []
        for mod_name, attr, name, counts, prepare in BINDINGS:
            module = self.modules[mod_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts, prepare))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, counts, prepare):
        sig = inspect.signature(fn)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            bound = None
            if counts is not None or prepare is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                except TypeError:  # the call no longer matches; count nothing
                    pass
                else:
                    bound.apply_defaults()
                    if prepare is not None:
                        prepare(bound)
                    args, kwargs = bound.args, bound.kwargs
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "start": time.perf_counter(), "end": None}
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None and bound is not None:
                try:
                    span.update(counts(bound, out))
                except (AttributeError, KeyError, TypeError) as exc:
                    span["count_error"] = f"{type(exc).__name__}: {exc}"
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)
            fh.write("\n")


def layer_metrics(spans: list, rounds: int) -> dict:
    """Per-layer numbers for one round: totals over spans divided by rounds.

    Times are inclusive span durations except where a name says otherwise:
    estimator.em_s is qml_estimate's time outside its BFGS call, and
    harness.self_s is the harness spans' time outside every child span.
    """
    def total(name, key=None):
        return sum((s["end"] - s["start"]) if key is None else s.get(key, 0)
                   for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def outside(names, child_names=None):
        inner = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None and (child_names is None
                                            or s["name"] in child_names):
                inner[s["parent"]] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - inner[i]
                   for i, s in enumerate(spans) if s["name"] in names)

    sim_s, obs = total("dgp.simulate"), total("dgp.simulate", "obs")
    loglik_s, score_s = total("mixture.loglik"), total("mixture.score")
    rows = total("mixture.loglik", "rows") + total("mixture.score", "rows")
    per_round = {
        "dgp.simulate_s": sim_s,
        "dgp.simulate_calls": calls("dgp.simulate"),
        "dgp.obs_simulated": obs,
        "estimator.qml_s": total("estimator.qml"),
        "estimator.em_s": outside({"estimator.qml"}, {"estimator.bfgs"}),
        "estimator.em_iter_best": total("harness.replication", "em_iter"),
        "estimator.em_capped_best": total("harness.replication", "em_capped"),
        "estimator.bfgs_s": total("estimator.bfgs"),
        "estimator.bfgs_nit": total("estimator.bfgs", "nit"),
        "estimator.bfgs_evals": total("estimator.bfgs", "nfev"),
        "mixture.loglik_s": loglik_s,
        "mixture.loglik_calls": calls("mixture.loglik"),
        "mixture.score_s": score_s,
        "mixture.score_calls": calls("mixture.score"),
        "mixture.rows": rows,
        "mixture.hessian_s": total("mixture.hessian"),
        "mixture.hessian_calls": calls("mixture.hessian"),
        "inference.sandwich_s": total("inference.sandwich"),
        "inference.hac_s": total("inference.hac"),
        "inference.hac_lags": total("inference.hac", "lags"),
        "harness.replication_s": total("harness.replication"),
        "harness.io_s": total("harness.io"),
        "harness.self_s": outside({"harness.experiment", "harness.replication"}),
        "oracle.msar_s": total("oracle.msar"),
        "oracle.msar_bfgs_nit": total("oracle.bfgs", "nit"),
        "oracle.kl_check_s": total("oracle.kl_check"),
        "oracle.weights_s": total("oracle.weights"),
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out["dgp.ns_per_obs"] = 1e9 * sim_s / obs if obs else 0.0
    out["mixture.ns_per_row"] = 1e9 * (loglik_s + score_s) / rows if rows else 0.0
    return out


UNITS = {
    "trace.overhead_s": "s",
    "dgp.simulate_s": "s", "dgp.simulate_calls": "count",
    "dgp.obs_simulated": "count", "dgp.ns_per_obs": "ns",
    "estimator.qml_s": "s", "estimator.em_s": "s",
    "estimator.em_iter_best": "count", "estimator.em_capped_best": "count",
    "estimator.bfgs_s": "s", "estimator.bfgs_nit": "count",
    "estimator.bfgs_evals": "count",
    "mixture.loglik_s": "s", "mixture.loglik_calls": "count",
    "mixture.score_s": "s", "mixture.score_calls": "count",
    "mixture.rows": "count", "mixture.ns_per_row": "ns",
    "mixture.hessian_s": "s", "mixture.hessian_calls": "count",
    "inference.sandwich_s": "s", "inference.hac_s": "s",
    "inference.hac_lags": "count",
    "harness.replication_s": "s", "harness.io_s": "s", "harness.self_s": "s",
    "oracle.msar_s": "s", "oracle.msar_bfgs_nit": "count",
    "oracle.kl_check_s": "s", "oracle.weights_s": "s",
}
