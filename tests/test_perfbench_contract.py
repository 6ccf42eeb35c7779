"""What perfbench relies on in the package, checked in the tier-1 suite.

perfbench traces layers by rebinding functions in the modules that call them
(perfbench/spans.py) and plants faults by editing decoded estimates.  A
refactor that moves a traced call would make its per-layer metrics read 0
without a failure, and one that made the components of a MixtureParams
derived would make a planted fault vanish.
"""

import copy
import importlib.util
from pathlib import Path

import numpy as np

import mixregime
from mixregime import (MixtureParams, ModelSpec, align_permutation, decode,
                       encode)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    loader = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    return spans


def test_tracer_misses_exactly_the_known_bindings():
    spans = load_spans()
    modules = {name: getattr(mixregime, name)
               for name in ("harness", "estimator", "inference", "oracle")}
    bound = {(mod, attr): getattr(modules[mod], attr, None)
             for mod, attr, *_ in spans.BINDINGS}
    with spans.Tracer(modules) as tracer:
        pass
    # the package computes these through mixture.neg_loglik_and_score and
    # sandwich_cov, so no call site is left to trace
    assert tracer.missing == ["estimator.quasi_loglik", "estimator.score",
                              "oracle.score_contributions"]
    assert all(getattr(modules[mod], attr, None) is fn
               for (mod, attr), fn in bound.items())


def test_decoded_components_are_mutable_records():
    # perfbench shifts theta_star.components[0].mu of a deep copy of the
    # oracle's result, an aligned decode, and reads components[i].mu/gamma/sigma
    spec = ModelSpec(d=2, form="msar")
    truth = MixtureParams.from_arrays([1.0, -1.0], [0.9, 0.9], [1.0, 2.0],
                                      [0.6, 0.4])
    theta = copy.deepcopy(align_permutation(decode(encode(truth, spec), spec),
                                            truth))
    before = theta.outcome_matrix
    for column, field in enumerate(("mu", "gamma", "sigma")):
        setattr(theta.components[0], field,
                getattr(theta.components[0], field) + 0.3)
        before[0, column] += 0.3
    np.testing.assert_array_equal(theta.outcome_matrix, before)
    np.testing.assert_array_equal(encode(theta, ModelSpec(d=2))[[0, 2, 4]],
                                  [before[0, 0], before[0, 1],
                                   np.log(before[0, 2])])
