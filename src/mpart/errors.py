"""The package's two exceptions, one per CLI exit code."""


class MPartError(Exception):
    """Bad input or parameters: the CLI prints `error: <message>` and exits 2."""


class InternalError(RuntimeError):
    """A fault inside mpart, not bad input: a broken invariant of the engine
    or a damaged or missing `generation.bin`.  The CLI prints
    `internal error: <message>` and exits 4."""
