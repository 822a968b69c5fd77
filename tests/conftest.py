"""Suite-wide settings: every hypothesis test is derandomised (the same
examples on every run) and untimed; each test sets only max_examples."""

from hypothesis import settings

settings.register_profile("atomfringe", derandomize=True, deadline=None)
settings.load_profile("atomfringe")
