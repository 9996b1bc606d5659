"""Settings shared by the whole test suite."""

from hypothesis import settings

# Every run draws the same examples, so two runs of the suite (say, before and
# after a change) test the same cases; no example database is replayed.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
