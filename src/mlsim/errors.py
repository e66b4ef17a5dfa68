"""Exception hierarchy shared by all mlsim modules, the coded issue, and the
methods every mlsim dataclass shares.

Each mlsim dataclass is declared `@dataclass(init=False, repr=False,
eq=False)`, so decorating it generates no code, and writes its own
`__init__` and docstring: `dataclasses.fields`, `replace` and
`FrozenInstanceError` work as for any dataclass.  What `dataclass` would
have generated from the fields, and `exec`ed once per class at import, is
written once here: `Record` gives a mutable record `==` and `repr`, and
`Value` makes a record frozen and hashable.
"""

from dataclasses import FrozenInstanceError, dataclass, fields
from operator import attrgetter
from reprlib import recursive_repr


class _Compared:
    """`_compared` of a record's class: the tuple of its compared fields
    (`field(compare=True)`, the default) of an instance, as one getter.  The
    first read on a class makes it from `dataclasses.fields` and stores it on
    the class, where every later read finds it."""

    def __get__(self, record, cls):
        names = [f.name for f in fields(cls) if f.compare]
        if len(names) > 1:
            cls._compared = attrgetter(*names)
        else:
            cls._compared = staticmethod(lambda value: tuple([getattr(value, name)
                                                              for name in names]))
        return cls._compared


class Record:
    """The `==` and `repr` of `dataclass(eq=True, repr=True)`: two records
    are equal when they are of one class and their compared fields are equal
    as tuples, and the repr shows the fields with `field(repr=True)`.  Like a
    dataclass with `eq=True`, a record is unhashable."""

    __hash__ = None
    _compared = _Compared()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            compared = self._compared
            return compared(self) == compared(other)
        return NotImplemented

    @recursive_repr()
    def __repr__(self):
        shown = ", ".join([f"{f.name}={getattr(self, f.name)!r}"
                           for f in fields(self) if f.repr])
        return f"{self.__class__.__qualname__}({shown})"


class Value(Record):
    """A frozen record, as `dataclass(frozen=True)` makes one: hashed over
    its compared fields (a class's own `__hash__` wins), and an assignment
    or deletion raises `FrozenInstanceError`.  Its `__init__` writes the
    fields with one `self.__dict__.update`."""

    def __hash__(self):
        return hash(self._compared(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(init=False, repr=False, eq=False)
class Issue(Value):
    """One problem found by a static check, tagged with a stable code."""

    code: str
    message: str

    def __init__(self, code, message):
        self.__dict__.update(code=code, message=message)

    def __str__(self):
        return f"[{self.code}] {self.message}"


class MlsimError(Exception):
    """Base class for all mlsim errors."""


class IssuesError(MlsimError):
    """Carries the full issue list so a user sees every problem at once, not
    just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


# --- level graph ---

class EmptyLevelSet(MlsimError):
    pass


class UnknownLevelEndpoint(MlsimError):
    pass


class SelfLoopEdge(MlsimError):
    """A level edge from a level to itself; intra-level relations are implicit."""


class UnknownLevel(MlsimError):
    pass


# --- engine contracts ---

class IllegalInfluenceTarget(MlsimError):
    """A producer emitted an influence into a level outside its out-influence
    neighborhood, or with a kind/class the producer is not allowed to emit."""


class IllegalPerception(MlsimError):
    """A rule requested a level view outside its out-perception neighborhood."""


class KindNotProducible(MlsimError):
    """Influence kind is not in the producible-kind set of its target level."""


class ReactionFault(MlsimError):
    """A reaction rule raised, or violated its level-locality contract."""


class SafetyViolation(MlsimError):
    """A runtime safety invariant (occupancy, task monotonicity) was broken."""


# --- hierarchy / model validation ---

class ModelValidationError(IssuesError):
    """A model's static declarations break a hierarchy rule."""


# --- domain ---

class EmitterOnBlockedCell(MlsimError):
    pass


# --- scenario ---

class ScenarioError(IssuesError):
    """Scenario parse or validation failure."""
