"""repro.errors — every structured error survives pickling.

Exceptions pickle as ``cls(*args)`` with ``args`` the formatted message;
a subclass whose ``__init__`` takes fields instead needs ``__reduce__``
or it fails to *unpickle* — inside a pool's result handler or an agent's
reply decoder, far from the raise.
"""

import inspect
import pickle

import pytest

from repro import errors
from repro.errors import ReproError

STRUCTURED = [
    errors.OutOfMemory(3, 900, 500),
    errors.WorkerCrashed(1, "RuntimeError: boom"),
    errors.BlockNotFound("e0001/rel:R1#0"),
    errors.BlockNotFound("e0001/rel:R1#0", "double free"),
    errors.AdmissionError("queue full"),
    errors.AdmissionError("over budget", reason="budget", tenant="acme"),
    errors.BudgetExceeded(7, 5),
]


def test_every_custom_init_is_covered():
    custom = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, ReproError) and "__init__" in vars(cls)}
    assert custom == {type(exc) for exc in STRUCTURED}


@pytest.mark.parametrize("exc", STRUCTURED, ids=lambda e: type(e).__name__)
def test_pickle_round_trip_keeps_type_message_and_fields(exc):
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        back = pickle.loads(pickle.dumps(exc, protocol))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
