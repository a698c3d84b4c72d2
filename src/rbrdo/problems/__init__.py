"""Registry of the shipped application problems."""

from __future__ import annotations

from ..errors import UsageError
from . import benchmark, catalyst, heat_exchanger, reactor
from .base import DeterministicProblem

_MODULES = {
    "benchmark": benchmark,
    "heat-exchanger": heat_exchanger,
    "reactor": reactor,
    "catalyst": catalyst,
}


def list_problems() -> list[str]:
    return sorted(_MODULES)


def get_deterministic(name: str) -> DeterministicProblem:
    return _module(name).deterministic()


def get_rbrdo(name: str):
    return _module(name).rbrdo()


def _module(name: str):
    try:
        return _MODULES[name]
    except KeyError:
        raise UsageError(
            f"unknown problem {name!r}; available: {', '.join(list_problems())}"
        ) from None
