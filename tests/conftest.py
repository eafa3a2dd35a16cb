"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` loads ``ci``, which prints
the reproduction blob of a failing example (``@reproduce_failure``)."""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
