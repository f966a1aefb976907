"""Suite-wide settings.

Every Hypothesis test draws the same examples on every run, so two runs
of one tree test the same cases and a failing case found once is found
again.  A test's own ``@settings`` still set its ``max_examples`` and
``deadline``.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")
