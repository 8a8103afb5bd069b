from hypothesis import settings

# A failing property prints the blob that replays it (@reproduce_failure),
# so a tier-1 failure can be reproduced from the test log alone.
settings.register_profile("default", print_blob=True)
settings.load_profile("default")
