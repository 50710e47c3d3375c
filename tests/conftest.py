"""Test-wide settings and fixtures.

Property tests draw the same examples on every run.  The rest of the suite
needs only pytest, so the profile is registered only where hypothesis is
installed.
"""

import pytest

from wignerlab import errors

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile(
        "wignerlab", derandomize=True, deadline=None, max_examples=10, database=None
    )
    settings.load_profile("wignerlab")


@pytest.fixture
def cold_plans(monkeypatch):
    """An empty plan store that holds nothing for the test's duration: every
    Dirichlet table and sketch is built by the call that reads it, so a
    traced peak does not depend on which earlier call warmed the store."""
    with errors._plans_lock:
        errors._plans.clear()
    monkeypatch.setattr(errors, "_PLAN_LIMIT_BYTES", 0)
