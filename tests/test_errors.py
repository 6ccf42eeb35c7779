"""The one config reader: every config record's fields declare its JSON keys
and types, and from_json and validate() reject a wrong-typed value alike."""

import dataclasses
import functools
import operator
import re
import typing
from typing import Optional, Union

import numpy as np
import pytest

from mixregime import (ArLaw, EstimatorConfig, ExperimentConfig, HacConfig,
                       HmmDgpParams, McSummary, NoiseCorrelation,
                       RegimeOutcome, TransitionSpec, ValidationError,
                       hmm_benchmark, msar_benchmark)
from mixregime.errors import JsonRecord

STATS = {"bias": 0.1, "sd": 0.2, "mean_se": 0.2, "sd_se_ratio": None}

# a valid instance of every config record, each optional field set
VALID = {
    RegimeOutcome: lambda: RegimeOutcome(1.0, 0.5, 1.0),
    TransitionSpec: lambda: TransitionSpec.two_state((2.0, 2.0), (0.5, -0.5)),
    ArLaw: lambda: ArLaw(0.2, 0.8, 1.0),
    NoiseCorrelation: lambda: NoiseCorrelation(0.3, 0.0),
    HmmDgpParams: msar_benchmark,
    EstimatorConfig: EstimatorConfig,
    HacConfig: lambda: HacConfig(bandwidth=4.0),
    ExperimentConfig: lambda: ExperimentConfig(
        dgp=hmm_benchmark(), T=200, n_reps=2, label="x", out_dir="out"),
    McSummary: lambda: McSummary(design="x", T=200, n_reps=2, n_used=2,
                                 n_converged=2, n_degenerate=0, n_failed=0,
                                 params={"mu_1": dict(STATS)}),
}

# values of the wrong type for a field of each declared type: a string for a
# number, a bool for an int or a real, and a number for a string or a block
WRONG = {
    int: ["2", True, 2.5],
    float: ["0.5", True],
    Optional[float]: ["0.5", True],
    str: [7, True],
    Optional[str]: [7, True],
    Union[str, float]: ["8", True, [8.0]],  # "8" is neither "auto" nor a number
    dict: [7, "x"],
    np.ndarray: ["0.5", True, [["0.5", 0.0], [0.0, 0.0]],
                 [[True, 0.0], [0.0, 0.0]]],
}


def config_records():
    """Every JsonRecord subclass that names a config block."""
    found, todo = set(), [JsonRecord]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.json_label:
                found.add(sub)
    return found


def block_record(hint):
    """The record class a field of type `hint` holds, alone or in a list,
    or None."""
    if typing.get_origin(hint) is list:
        (hint,) = typing.get_args(hint)
    return hint if isinstance(hint, type) and issubclass(hint, JsonRecord) \
        else None


def wrong_cases():
    for cls in sorted(VALID, key=lambda c: c.__name__):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            hint = hints[field.name]
            values = ["0.5", True] if block_record(hint) else WRONG[hint]
            for value in values:
                yield pytest.param(cls, field.name, hint, value,
                                   id=f"{cls.__name__}.{field.name}={value!r}")


def test_every_config_record_is_covered():
    # a new config record must get a valid instance above
    assert config_records() == set(VALID)


@pytest.mark.parametrize("cls", sorted(VALID, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_required_keys_are_the_fields_without_a_default(cls):
    obj = VALID[cls]().to_json()
    assert cls.from_json(obj).to_json() == obj
    for field in dataclasses.fields(cls):
        short = {k: v for k, v in obj.items() if k != field.name}
        required = (field.default is dataclasses.MISSING
                    and field.default_factory is dataclasses.MISSING)
        if required:
            with pytest.raises(ValidationError, match=(
                    f"^missing {re.escape(cls.json_label)} key\\(s\\): "
                    f"{field.name}$")):
                cls.from_json(short)
        else:
            cls.from_json(short)


@pytest.mark.parametrize("cls, name, hint, value", list(wrong_cases()))
def test_wrong_typed_field_is_rejected_naming_it(cls, name, hint, value):
    # the field's name, or for a nested block its record's label, which is
    # what a block's own messages carry
    names = [name]
    if block_record(hint):
        names.append(block_record(hint).json_label)
    named = "|".join(rf"(?<!\w){re.escape(n)}(?!\w)" for n in names)

    obj = VALID[cls]().to_json()
    obj[name] = value
    with pytest.raises(ValidationError, match=named):
        cls.from_json(obj)

    built = dataclasses.replace(VALID[cls](), **{name: value})
    with pytest.raises(ValidationError, match=named):
        built.validate()


@pytest.mark.parametrize("law", ["z_law", "w_law"])
def test_string_ar_slope_is_a_validation_error(law):
    # np.isfinite raised a raw TypeError on the string
    params = hmm_benchmark()
    setattr(params, law, ArLaw(0.2, "0.8", 1.0))
    with pytest.raises(ValidationError) as err:
        params.validate()
    assert err.value.violations == ["slope must be a real number, got '0.8'"]


def test_bool_sigma_is_rejected_in_a_record_built_in_python():
    # True > 0 let sigma = True pass as 1.0
    params = hmm_benchmark()
    params.outcomes[1] = RegimeOutcome(-1.0, 1.0, True)
    with pytest.raises(ValidationError) as err:
        params.validate()
    assert err.value.violations == ["sigma must be a real number, got True"]


def test_type_fault_skips_the_domain_rules_that_read_it():
    # slope = True would also give "|slope| must be < 1 ..., got True"
    obj = hmm_benchmark().to_json()
    obj["z_law"]["slope"] = True
    with pytest.raises(ValidationError) as err:
        HmmDgpParams.from_json(obj)
    assert err.value.violations == ["slope must be a real number, got True"]


def test_real_values_are_stored_as_floats():
    obj = EstimatorConfig().to_json()
    obj["em_tol"] = 1
    cfg = EstimatorConfig.from_json(obj)
    assert type(cfg.em_tol) is float and type(cfg.n_starts) is int
    assert type(HacConfig.from_json({"bandwidth": 8}).bandwidth) is float
    spec = TransitionSpec.from_json({"alpha": [[2, 0], [0, 2]],
                                     "beta": [[0, 0], [0, 0]]})
    assert spec.alpha.dtype == float


HUGE = 10 ** 400  # an int that no double holds


@pytest.mark.parametrize("cls, path, name", [
    (EstimatorConfig, ("em_tol",), "em_tol"),
    (HmmDgpParams, ("outcomes", 0, "mu"), "mu"),
    (HmmDgpParams, ("transition", "alpha", 0, 0),
     "transition alpha row 0, column 0"),
])
def test_int_too_large_for_a_double_is_no_real_number(cls, path, name):
    # float() raised a raw OverflowError while the block was read
    obj = VALID[cls]().to_json()
    *parents, key = path
    functools.reduce(operator.getitem, parents, obj)[key] = HUGE
    with pytest.raises(ValidationError) as err:
        cls.from_json(obj)
    assert err.value.violations == [f"{name} must be a real number, got {HUGE}"]


def test_huge_int_in_a_record_built_in_python_is_rejected():
    with pytest.raises(ValidationError) as err:
        RegimeOutcome(HUGE, 0.5, 1.0).validate()
    assert err.value.violations == [f"mu must be a real number, got {HUGE}"]
