import numpy as np
import pytest

from specgrad.errors import InvalidInputError
from specgrad.synth import spectrum_for_condition


class TestSpectrumForCondition:
    @pytest.mark.parametrize("cond", [np.nan, np.inf, 0.5])
    def test_target_outside_finite_range_rejected(self, cond):
        with pytest.raises(InvalidInputError, match="finite and >= 1"):
            spectrum_for_condition(4, cond)
