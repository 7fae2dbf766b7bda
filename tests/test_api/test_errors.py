"""The consolidated error hierarchy: every public exception inherits
:class:`ReproError` and carries a stable machine-readable ``code``
(``repro.<subsystem>[.<condition>]``).
"""

from __future__ import annotations

import pytest

import repro
from repro import errors

PUBLIC_ERRORS = [
    errors.XMLParseError,
    errors.XQuerySyntaxError,
    errors.XQueryTypeError,
    errors.CompileError,
    errors.RewriteError,
    errors.SanitizerError,
    errors.AnalysisError,
    errors.CodegenError,
    errors.PlanError,
    errors.DocumentError,
    errors.ServiceError,
    errors.DeadlineExceeded,
    errors.ServiceOverloaded,
    errors.QuotaExceeded,
    errors.CircuitOpenError,
    errors.BackendUnavailable,
    errors.PoolRetiredError,
]


def test_every_public_error_inherits_repro_error():
    for cls in PUBLIC_ERRORS:
        assert issubclass(cls, errors.ReproError), cls.__name__


def test_every_public_error_has_a_stable_dotted_code():
    for cls in PUBLIC_ERRORS:
        code = cls.code
        assert isinstance(code, str) and code.startswith("repro."), (
            f"{cls.__name__} has code {code!r}"
        )
        assert code != errors.ReproError.code, (
            f"{cls.__name__} still carries the base-class code"
        )


def test_codes_are_unique_across_the_hierarchy():
    codes = [cls.code for cls in PUBLIC_ERRORS]
    assert len(codes) == len(set(codes))


def test_instances_carry_the_class_code():
    assert errors.DeadlineExceeded("late").code == "repro.service.deadline"
    assert errors.PoolRetiredError("gone").code == "repro.service.pool_retired"


def test_sanitizer_error_refines_the_class_code_per_instance():
    """SanitizerError instances override the class code with the JGI
    diagnostic code of the specific violated invariant."""
    assert errors.SanitizerError.code == "repro.rewrite.sanitizer"
    error = errors.SanitizerError("step diverged", "JGI031", "(7b)")
    assert error.code == "JGI031"
    assert error.rule == "(7b)"


def test_public_surface_reexports_the_hierarchy():
    for cls in PUBLIC_ERRORS + [errors.ReproError]:
        assert getattr(repro, cls.__name__) is cls


def test_caught_as_repro_error():
    with pytest.raises(errors.ReproError) as excinfo:
        raise errors.QuotaExceeded("tenant over budget")
    assert excinfo.value.code == "repro.service.quota"
