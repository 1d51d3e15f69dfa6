"""Test-session setup.

Hypothesis imports `hypothesis.extra._patching` only when a test fails, to
write the failing example as a patch. With libcst installed, that import
raises a DeprecationWarning (from mypy_extensions), which `pytest -W error`
turns into an internal error that hides the falsifying example. Importing the
module once here, with that warning ignored, leaves `-W error` in force for
every test.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
