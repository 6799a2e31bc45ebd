"""Every exception class of the package survives a pickle round trip.

The oracle starts no process, but a caller that runs the library in a
process pool gets each exception back pickled, so a class whose constructor
cannot be re-run from its pickled form would reach it as a TypeError instead.
"""

import importlib
import pickle
import pkgutil

import orituran
from orituran.extremal import BadParamsError, BudgetExceededError, NoFormulaError
from orituran.graphs import (
    AntiparallelArcError,
    GraphError,
    InvariantError,
    LoopArcError,
    OrientedGraph,
    ParseError,
    TooLargeError,
    VertexCapError,
)
from orituran.homomorphism import EmptyPatternError
from orituran.regularize import (
    AttemptsExhausted,
    CertificateInsufficient,
    InfeasibleConfig,
    RegularizeError,
    RetriesExhausted,
    TooSmall,
)

SAMPLES = [
    GraphError("graph"),
    LoopArcError("loop at vertex 1"),
    AntiparallelArcError("antiparallel pair between 0 and 1"),
    InvariantError("vertex count -1 is negative"),
    TooLargeError("too large"),
    VertexCapError("vertex count 65 exceeds cap 64"),
    ParseError("expected two integers", 4, 7),
    BadParamsError("oracle needs n >= 1"),
    NoFormulaError("no closed form"),
    BudgetExceededError(3, None, 5),
    BudgetExceededError(1, OrientedGraph.from_arcs(3, [(0, 1)]), 50),
    EmptyPatternError("no arcs"),
    RegularizeError("regularize"),
    AttemptsExhausted("attempts"),
    TooSmall("too small"),
    CertificateInsufficient("certificate"),
    RetriesExhausted("retries"),
    InfeasibleConfig("infeasible"),
]


def _package_exception_classes():
    found = set()
    for info in pkgutil.iter_modules(orituran.__path__):
        module = importlib.import_module(f"orituran.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__.startswith("orituran.")):
                found.add(obj)
    return found


def test_samples_cover_every_exception_class():
    assert {type(e) for e in SAMPLES} == _package_exception_classes()


def test_exceptions_survive_pickle():
    for exc in SAMPLES:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)
