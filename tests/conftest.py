"""Shared test settings: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("orituran", derandomize=True, deadline=None, database=None)
settings.load_profile("orituran")
