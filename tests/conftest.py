import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI selects this profile (``--hypothesis-profile=ci``): the same examples on
# every run, and a failure prints the blob that replays it locally.  Local
# runs keep the default profile.
settings.register_profile("ci", derandomize=True, print_blob=True)

from xmodlab.induce import run_table_full


@pytest.fixture(scope="session")
def table_results():
    """All seven induced modules with their reports, computed once."""
    return run_table_full()
