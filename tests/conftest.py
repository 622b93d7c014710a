"""Suite-wide test configuration.

Every hypothesis property in tier-1 is derandomised: each test draws
the same examples on every run, seeded from the test itself, so the
gate cannot pass or fail by luck, and a stale ``.hypothesis/``
directory cannot replay an old failing draw into it.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
