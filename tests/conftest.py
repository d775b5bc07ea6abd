"""Suite-wide hypothesis settings.

Examples here train models or run quadrature, so a single example may take
longer than hypothesis's default 200 ms deadline; the profile drops the
deadline for every property, and each property sets only its example count.
"""

from hypothesis import settings

settings.register_profile("enspost", deadline=None)
settings.load_profile("enspost")
