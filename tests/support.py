"""Helpers several test modules share; the program itself has no use for them."""

from mlsim.engine import ReactionResult
from mlsim.state import ORDINARY, Influence


def influence(kind, target_level, producer, uid, klass=ORDINARY, **payload) -> Influence:
    """An influence built by hand, with `uid` as its id and the keyword
    arguments as its payload."""
    return Influence(
        id=uid,
        kind=kind,
        target_level=target_level,
        producer=producer,
        payload=payload,
        klass=klass,
    )


def identity_reaction(level, sigma, influences, ctx) -> ReactionResult:
    """Keep the properties, persist nothing."""
    return ReactionResult(sigma=sigma)
