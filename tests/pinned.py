"""Pin one statement's outcome: the exception it raises, its type and exact
message, or the value it returns."""

import pytest


def assert_pinned(call, expected) -> None:
    """``call()`` raises an exception of exactly ``expected``'s type and
    message when ``expected`` is an exception, else returns ``expected``."""
    if isinstance(expected, Exception):
        with pytest.raises(Exception) as info:
            call()
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
    else:
        assert call() == expected
