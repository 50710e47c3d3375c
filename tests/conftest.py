"""Test-wide settings: property tests draw the same examples on every run.

The rest of the suite needs only pytest, so the profile is registered only
where hypothesis is installed.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile(
        "wignerlab", derandomize=True, deadline=None, max_examples=10, database=None
    )
    settings.load_profile("wignerlab")
