import os

import hypothesis
import numpy as np
import pytest

from tero.model import ModelParams, init_params

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("thorough", max_examples=300)
# HYPOTHESIS_PROFILE=thorough runs 300 examples per property instead of 25
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture
def tiny_params() -> ModelParams:
    return init_params(n_entities=4, n_relations=2, n_tau=3, k=3, dual=False, seed=3)


def params_from(ent: np.ndarray, rel: np.ndarray, phase: np.ndarray,
                n_relations: int | None = None, dual: bool = False,
                norm_p: int = 1) -> ModelParams:
    """Build params from complex entity/relation arrays and a phase table."""
    ent = np.asarray(ent, complex)
    rel = np.asarray(rel, complex)
    phase = np.asarray(phase, float)
    return ModelParams(ent.real.copy(), ent.imag.copy(), rel.real.copy(), rel.imag.copy(),
                       phase.copy(), n_relations=n_relations or len(rel),
                       dual=dual, norm_p=norm_p)
