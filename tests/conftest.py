import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# HYPOTHESIS_PROFILE=deep runs 1000 derandomised examples per test
settings.register_profile("deep", parent=settings.get_profile("default"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

PHI = (math.sqrt(5) + 1) / 2
SQRT3 = math.sqrt(3)

FIG1 = (0.5, 0.0, 0.5, 0.0)
FIG2 = (1 + SQRT3 / 2, 0.0, 1.0, SQRT3 / 2)
FIG3 = (0.801938, 1.0, 0.0, 1.0, 0.801938)
FIG4 = (1.44504, 1.0, 1.44504, 0.0, 3.24698)
FIG5 = (2.80194, 1.0, 2.80194, 0.0, 1.55496)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
