"""Hypothesis runs derandomized and without an example database, so every
run draws the same examples. What it still caches (the constants it finds in
the source) goes to a temporary directory removed after the run, so a run
leaves no ``.hypothesis/`` directory in the checkout."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
