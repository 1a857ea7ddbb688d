"""Test-suite configuration: one reproducible hypothesis profile.

Examples are derived from each test's own source (``derandomize``), so a
run draws the same inputs every time; ``deadline`` is off because timing
on a small shared host varies, and ``max_examples`` keeps the property
tests to a few seconds."""

from hypothesis import settings

settings.register_profile(
    "heegaard2", derandomize=True, deadline=None, max_examples=200
)
settings.load_profile("heegaard2")
