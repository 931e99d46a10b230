"""Exception hierarchy shared by every pencil4 module.

Each error class corresponds to one failure mode a caller can reasonably
branch on.  The classes carry no CLI policy: the exit code and stderr label
of each live in one table in ``pencil4.cli`` (``_EXITS``).
"""

from __future__ import annotations


class Pencil4Error(Exception):
    """Base class for all library errors."""


class ParseError(Pencil4Error):
    """Malformed expression text. ``position`` is the byte offset of the
    first offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """An identifier that is neither the free variable, a named constant
    nor a known function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r}", position)
        self.name = name


class EvalDomainError(Pencil4Error):
    """Evaluation hit a domain fault (division by zero, log of a
    non-positive value, square root of a negative value, trig pole).

    ``position`` locates the offending subtree in the original source when
    the node came from the parser; synthetic nodes carry ``None``.
    """

    def __init__(self, message: str, position: int | None = None):
        where = "" if position is None else f" (source offset {position})"
        super().__init__(f"{message}{where}")
        self.position = position


class ConstraintViolationError(Pencil4Error):
    """A documented precondition on constructor inputs failed (non-unit-speed
    curve, wrong curvature relation for a flat-design case, ...)."""


class DegenerateFrameError(Pencil4Error):
    """The moving frame has rank < 4 and no completion convention applies.

    ``rank`` is the number of independent frame vectors recovered before the
    construction broke down; ``kappas`` holds whatever curvatures were
    computed up to that point.
    """

    def __init__(self, rank: int, kappas: tuple[float, ...] = (), message: str = ""):
        detail = message or f"frame degenerates at rank {rank}"
        super().__init__(detail)
        self.rank = rank
        self.kappas = kappas


class UnsupportedCompletionError(Pencil4Error):
    """Frame completion was requested for a curve outside the supported
    degenerate family."""


class RegularityViolationError(Pencil4Error):
    """A surface regularity condition failed at an evaluation point.

    ``condition`` is ``"spine"`` when a^2 + b^2 vanished and ``"marching"``
    when A'^2 + B'^2 vanished.
    """

    def __init__(self, condition: str, s: float | None = None, t: float | None = None):
        at = "" if s is None else f" at (s, t) = ({s!r}, {t!r})"
        names = {
            "spine": "a^2 + b^2 > 0 failed",
            "marching": "A'(t)^2 + B'(t)^2 > 0 failed",
        }
        super().__init__(f"regularity violation: {names.get(condition, condition)}{at}")
        self.condition = condition
        self.s = s
        self.t = t


class SingularProfileSystemError(Pencil4Error):
    """The linear system mapping profile functions to marching-scale
    functions is singular (first curvature of the generator vanishes)."""


class DomainError(Pencil4Error):
    """A requested parameter range contains a pole or sign change of a
    radius/profile function."""


class RankDeficiencyError(Pencil4Error):
    """Numeric tangent vectors of a probed immersion are linearly
    dependent (non-regular patch)."""


class StepUnderflowError(Pencil4Error):
    """The differencing stencil does not fit inside the immersion domain, or
    in the doubles: it reaches past the largest double or its step is lost."""


class ConfigError(Pencil4Error):
    """CLI configuration file is missing, unreadable or schema-invalid."""
