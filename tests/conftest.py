"""Shared test settings: every hypothesis test draws the same examples on
every run and keeps no example database in the checkout."""

from hypothesis import settings

settings.register_profile("wbansim", derandomize=True, database=None)
settings.load_profile("wbansim")
