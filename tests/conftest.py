import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI draws the same examples on every run and prints the blob that replays a
# failure, so a CI failure reproduces locally under HYPOTHESIS_PROFILE=ci
settings.register_profile("ci", settings.get_profile("default"), derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
