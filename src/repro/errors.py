"""The one type of bad input: a name, stack or spec that does not resolve."""


class InputError(ValueError):
    """Raised for a name, stack, spec or value from the caller that does
    not resolve or is out of range.

    The message says what was given and what would do, so the CLI prints
    it as one line instead of a traceback.  A ``ValueError``: an argument
    check written the usual way still catches it.
    """
