"""Exception types shared across the package, and the one check of every
setting's declared range."""

import functools
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np


class DepthNavError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(DepthNavError):
    """Tensor or image dimensions do not match what an operation requires."""


class TrainingError(DepthNavError):
    """Training aborted (bad dataset, non-finite loss or gradients)."""


class CheckpointError(DepthNavError):
    """Checkpoint file is malformed, corrupt, or incompatible."""


class DatasetError(DepthNavError):
    """Dataset container or import directory is malformed or inconsistent."""


class WorldError(DepthNavError):
    """Invalid world geometry, state, or simulation request."""


class PlannerError(DepthNavError):
    """Invalid planner configuration or input (e.g. non-PSD covariance)."""


class ConfigError(DepthNavError):
    """Bad configuration file or parameter value."""


@dataclass(frozen=True)
class Domain:
    """The values a setting may take: one of `choices`, or a number between lo
    and hi (closed unless marked open; a side without a bound still excludes
    infinity), an integer if `integer`, an odd integer if `odd`; with `each`,
    a non-empty tuple of them."""

    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    integer: bool = False
    choices: tuple = ()
    each: bool = False
    odd: bool = False

    def rule(self) -> str:
        """The domain in words, as error messages name it: 'in (0, inf)' for
        a finite positive number, 'an integer in [1, inf)', 'one of a, b'."""
        lo = "(-inf" if self.lo is None else f"{'(' if self.lo_open else '['}{self.lo:g}"
        hi = "inf)" if self.hi is None else f"{self.hi:g}{')' if self.hi_open else ']'}"
        kind = "an odd integer " if self.odd else "an integer " if self.integer else ""
        text = "one of " + ", ".join(self.choices) if self.choices else f"{kind}in {lo}, {hi}"
        return f"one or more values, each {text}" if self.each else text

    def predicate(self):
        """value -> bool (or TypeError); NaN fails, and v > lo is v >= nextafter(lo, inf)."""
        lo = self.lo if self.lo is not None and not self.lo_open else \
            math.nextafter(-math.inf if self.lo is None else self.lo, math.inf)
        hi = self.hi if self.hi is not None and not self.hi_open else \
            math.nextafter(math.inf if self.hi is None else self.hi, -math.inf)
        choices, ints = self.choices, (int, np.integer)

        def integer(v):
            return isinstance(v, ints) and v.__class__ is not bool and lo <= v <= hi

        one = ((lambda v: isinstance(v, str) and v in choices) if choices else
               (lambda v: integer(v) and v % 2 == 1) if self.odd else
               integer if self.integer else (lambda v: lo <= v <= hi))
        if not self.each:
            return one
        def every(values):  # cheaper than all(map(one, values)) on short tuples
            for v in values:
                if not one(v):
                    return False
            return len(values) > 0
        return every


def within(default=MISSING, lo=None, hi=None, *, lo_open=False, hi_open=False,
           integer=False, choices=(), each=False, odd=False):
    """A field of a Checked dataclass whose values must lie in this Domain."""
    return field(default=default, metadata={
        "domain": Domain(lo, hi, lo_open, hi_open, integer, tuple(choices), each, odd)})


@functools.cache
def _rules(cls) -> tuple:
    """(name, predicate, Domain) of every field of `cls` that declares a domain."""
    return tuple((f.name, f.metadata["domain"].predicate(), f.metadata["domain"])
                 for f in fields(cls) if "domain" in f.metadata)


def check_fields(obj, error_cls, prefix: str) -> None:
    """Raise `error_cls` naming the first field of `obj` outside its declared
    domain, as '<prefix> <field> must be <rule>, got <value>'; a numpy scalar
    value is named as the Python number it holds."""
    values = obj.__dict__
    for name, admits, domain in _rules(type(obj)):
        try:
            ok = admits(values[name])
        except TypeError:  # not a number, or not a sequence
            ok = False
        if not ok:
            value = values[name]
            value = value.item() if isinstance(value, np.generic) else value
            raise error_cls(f"{prefix} {name} must be {domain.rule()}, got {value!r}")


class Checked:
    """Base of a dataclass whose fields declare their domains with within():
    each instance is checked as it is built, raising the class's `error`."""

    def __init_subclass__(cls, error, prefix):
        cls._error, cls._prefix = error, prefix

    def __post_init__(self):
        check_fields(self, self._error, self._prefix)
