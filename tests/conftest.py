import math

import numpy as np
import pytest

from ocsnet.model import FlowTable, NetworkConfig, class_codes, validate


def flow_table(config, rows):
    """The ``FlowTable`` of ``(src, dst, size_bits, arrival_s)`` rows, classed
    by ``model.class_codes``; sizes keep what ``np.asarray`` makes of them."""
    src, dst, size, arrival = zip(*rows) if rows else ((),) * 4
    size = np.asarray(size)
    return FlowTable(src, dst, size, arrival, class_codes(size, config))


@pytest.fixture
def paper_config():
    """256 ToRs, (5,16,16) switches, 10 Gbps links, default timings."""
    return validate(NetworkConfig(
        n=256, k_s=5, k_r=16, k_c=16,
        r=10e9, delta=100e-6, R_r=10e-6, R_c=15e-3,
    ))


@pytest.fixture
def rotor_only_config():
    """Desk-scale rotor-only network; every size below inf stays medium-capable."""
    return validate(NetworkConfig(
        n=64, k_s=0, k_r=32, k_c=0,
        r=10e9, delta=100e-6, R_r=10e-6, R_c=15e-3,
        large_threshold_bits=math.inf,
    ))
