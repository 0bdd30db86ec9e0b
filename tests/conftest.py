from hypothesis import settings

# every run draws the same examples, so a failing property reproduces; each
# test keeps its own max_examples and deadline
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
