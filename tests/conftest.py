"""Shared test settings: property tests draw the same examples on every run,
and the one-second enumeration of the 6-vertex classes runs once."""

import pytest
from hypothesis import settings

from orituran.canon import enumerate_oriented_graphs

settings.register_profile("orituran", derandomize=True, deadline=None, database=None)
settings.load_profile("orituran")


@pytest.fixture(scope="session")
def oriented_graphs_6():
    """The 21,480 isomorphism classes of oriented graphs on 6 vertices."""
    return tuple(enumerate_oriented_graphs(6))
