"""Exception hierarchy shared across the package."""


class MPartError(Exception):
    """Base class for the errors that bad input or parameters raise."""


class InternalError(RuntimeError):
    """A broken invariant of the engine: a bug, not bad input, so the CLI
    lets it surface as a traceback rather than an input error."""


# pattern matrix errors
class NotSquare(MPartError):
    pass


class NotSymmetric(MPartError):
    pass


class BadCharacter(MPartError):
    pass


class DiagonalStar(MPartError):
    pass


class BadParameters(MPartError):
    pass


# graph errors
class SelfLoop(MPartError):
    pass


class VertexOutOfRange(MPartError):
    pass


class MalformedGraph6(MPartError):
    pass


class TooLarge(MPartError):
    pass


# solver / recognition errors
class NotSplit(MPartError):
    pass


class PartOutOfRange(MPartError):
    pass


class PartNotUniform(MPartError):
    pass
