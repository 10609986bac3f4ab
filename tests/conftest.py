"""Shared test settings: hypothesis draws the same examples on every run (no
random seed, no stored example database) and a fixed number of them, so the
suite is deterministic and its run time stays bounded."""

from hypothesis import HealthCheck, settings

settings.register_profile("vibox", derandomize=True, database=None, max_examples=150,
                          deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("vibox")
