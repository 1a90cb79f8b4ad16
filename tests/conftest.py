"""Shared test settings: one hypothesis profile for every property test.

Examples are drawn from a fixed seed, so a run repeats exactly, and no
per-example deadline applies; each test states only its example count.
"""

from hypothesis import settings

settings.register_profile("foscillator", derandomize=True, deadline=None)
settings.load_profile("foscillator")
