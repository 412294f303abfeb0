import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from flat4spec import load_catalog

# `--hypothesis-profile=ci` runs the property tests with ten times the
# default number of examples
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()
