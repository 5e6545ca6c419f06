"""Every run draws the same examples: Hypothesis' ``ci`` profile
(derandomized, no example database, no deadline) is loaded whether or not
the run detects CI."""

import hypothesis

hypothesis.settings.load_profile("ci")
