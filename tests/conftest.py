"""Hypothesis draws the same examples on every run: derandomize seeds each
property from its own name, and leaves no local example database behind, so
two runs of one commit, or of a commit and its parent, test the same inputs.

The explore profile searches instead: with hypothesis's own pytest flags

    python -m pytest -m "not slow" tests perfbench \\
        --hypothesis-profile=explore --hypothesis-seed=<n>

each seed draws new examples, and a property that sets no max_examples of
its own draws more of them. The flag overrides the profile loaded here."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("explore", derandomize=False, deadline=None, max_examples=1000)
settings.load_profile("derandomized")
