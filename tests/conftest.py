"""Shared test settings.

The Hypothesis property tests draw their examples from a fixed seed, so
every run checks the same cases and a verdict repeats from one run to the
next. Each test's own settings (deadline, max_examples) still apply.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
