"""Hypothesis draws the same examples on every run: derandomize seeds each
property from its own name, and leaves no local example database behind, so
two runs of one commit, or of a commit and its parent, test the same inputs."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
