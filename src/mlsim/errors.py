"""Exception hierarchy shared by all mlsim modules, and the coded issue."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Issue:
    """One problem found by a static check, tagged with a stable code."""

    code: str
    message: str

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
