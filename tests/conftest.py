"""Every run draws the same examples: Hypothesis' ``ci`` profile
(derandomized, no example database, no deadline) is loaded whether or not
the run detects CI.  What Hypothesis still writes, its ``constants/`` cache,
goes to a temporary directory that is removed when the run ends, so a run
leaves no ``.hypothesis/`` in the checkout."""

import tempfile

import hypothesis
from hypothesis.configuration import set_hypothesis_home_dir

hypothesis.settings.load_profile("ci")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
