"""Settings shared by every test module."""

from __future__ import annotations

from hypothesis import Phase, settings

# A failing property reports the example it found without shrinking it.
# Each example of the heavier properties runs whole e-scans and group laws,
# so shrinking one can take minutes; the falsifying example is still printed.
# Every other phase, and each test's own max_examples, is left as it is.
settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("no-shrink")
