"""Suite-wide settings.

Examples here train models or run quadrature, so a single example may take
longer than hypothesis's default 200 ms deadline; the profile drops the
deadline for every property, and each property sets only its example count.
The suite runs under the command line's malloc policy
(:func:`enspost.cli.keep_freed_memory`), as every CLI stage does.
"""

from hypothesis import settings

from enspost.cli import keep_freed_memory

settings.register_profile("enspost", deadline=None)
settings.load_profile("enspost")


def pytest_sessionstart(session):
    keep_freed_memory()
