"""Shared test settings: every hypothesis test draws the same examples on
every run, and hypothesis writes nothing into the checkout.

``database=None`` keeps no example database, but hypothesis still caches
the constants it reads from the source under its home directory while
tests are collected, so that directory is a temporary one from before
collection until the session ends."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("wbansim", derandomize=True, database=None)
settings.load_profile("wbansim")


def pytest_configure(config):
    config.hypothesis_home = tempfile.mkdtemp(prefix="wbansim-hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)
