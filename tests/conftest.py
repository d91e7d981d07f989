"""Shared test settings.

Property tests draw the same examples on every run: each test's examples
come from a hash of the test itself, not from a random seed, and no
example database carries failures from one run into the next.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
