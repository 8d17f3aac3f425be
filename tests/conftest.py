"""Session hooks shared by the test modules."""

import warnings

import pytest


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport():
    """On a failing test, import hypothesis's patch writer before its plugin does.

    After a failing ``@given`` test, hypothesis's pytest plugin imports
    ``hypothesis.extra._patching`` to print the failing example as a patch.
    That imports libcst, which warns a DeprecationWarning about
    ``mypy_extensions.TypedDict``; the suite turns DeprecationWarnings into
    errors, and one raised inside that hook ends the whole session without
    the failing example.  Importing the module here first, with only that
    warning ignored, lets the plugin find it already imported.  Passing runs
    never import it.
    """
    report = yield
    if report.failed:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict",
                                    category=DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # no libcst: the plugin skips the patch
                pass
    return report
