from hypothesis import settings

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; engine runs vary in length, so there is no deadline.
settings.register_profile("condensim", derandomize=True, deadline=None, database=None)
settings.load_profile("condensim")
