"""Discrete-event simulation kernel underlying the DDStore reproduction."""

from .engine import AllOf, AnyOf, Engine, Event, Interrupt, Process, SimulationError, Timeout
from .resources import FluidStation, QueueStation, Request, Resource, RWLock, Store
from .rng import RngRegistry, derive_seed, stream

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Resource",
    "Request",
    "RWLock",
    "Store",
    "QueueStation",
    "FluidStation",
    "RngRegistry",
    "stream",
    "derive_seed",
]
