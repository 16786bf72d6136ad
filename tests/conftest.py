"""Shared test configuration.

Every Hypothesis test runs under the ``tier1`` profile: examples are
derandomized (the suite is deterministic) and no per-example deadline
applies (the variational examples take tens of milliseconds each). Tests
set only ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
