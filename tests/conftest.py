"""Suite-wide settings: one hypothesis profile, so every run draws the same examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("tier1")
