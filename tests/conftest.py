from hypothesis import settings

# Derandomized examples and no example database: property tests draw the
# same cases on every run and leave no files behind.
settings.register_profile("coalflow", derandomize=True, database=None)
settings.load_profile("coalflow")
