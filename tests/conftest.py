from hypothesis import settings

# every run draws the same examples, so whether a test catches a defect
# does not depend on the run; no example database carries failures from
# one run into the next, and no deadline fails a slow but correct example
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
