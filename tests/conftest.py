import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Fixed draws for the fast-path property tests: the same cases on every run,
# so a failure reproduces from its log; no deadline, since BLAS timing varies.
settings.register_profile("fastpath", derandomize=True, deadline=None, database=None,
                          max_examples=40)
