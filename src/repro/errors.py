"""The one type of bad input: a name, stack or spec that does not resolve."""


class InputError(ValueError):
    """Raised for a name, stack, spec or value from the caller that does
    not resolve or is out of range.

    The message says what was given and what would do, so the CLI prints
    it as one line instead of a traceback.  A ``ValueError``: an argument
    check written the usual way still catches it.
    """


def parse_number(kind, value: str, name: str, spec: str):
    """``kind(value)``, or an InputError naming the field and the spec."""
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InputError(f"{name}={value!r} in {spec!r} is not {what}") \
            from None
