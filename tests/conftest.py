from hypothesis import settings

# Property tests run the same examples on every run and leave no example
# database behind.
settings.register_profile(
    "radialflow",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=300,
)
settings.load_profile("radialflow")
