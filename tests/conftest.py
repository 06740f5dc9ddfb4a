import math

import numpy as np
import pytest

from ocsnet.model import FlowTable, NetworkConfig, class_codes, validate
from ocsnet.simulator import PLANES


def flow_table(config, rows):
    """The ``FlowTable`` of ``(src, dst, size_bits, arrival_s)`` rows, classed
    by ``model.class_codes``; sizes keep what ``np.asarray`` makes of them."""
    src, dst, size, arrival = zip(*rows) if rows else ((),) * 4
    size = np.asarray(size)
    return FlowTable(src, dst, size, arrival, class_codes(size, config))


def at_time_zero(flows):
    """``flows`` with every arrival at 0.0, the table ``simulator.run_batch``
    builds and serves: the other columns are shared, not copied."""
    return FlowTable(flows.src, flows.dst, flows.size_bits, np.zeros(len(flows)),
                     flows.flow_class)


class PlaneSim:
    """Stands in for the ``Simulator`` a plane talks to, for tests that
    drive a plane directly: it holds ``flows`` and memoryviews over its
    columns, which a plane reads by flow id, as ``Simulator`` does for a
    run, and collects the events the plane schedules and the completions
    it records."""

    def __init__(self, flows):
        self._flows = flows
        self._src, self._dst, self._size, self._arrival, self._code = map(
            memoryview, flows._columns())
        self.events = []
        self.records = {}

    def schedule(self, t, kind, payload):
        self.events.append((t, kind, payload))

    def record(self, fid, t, plane, hops):
        self.records[fid] = (t, PLANES[plane], hops)

    @staticmethod
    def flow(sim, fid):
        """Flow ``fid``'s ``(src, dst, size)`` from the columns of ``sim``, a
        ``PlaneSim`` or a running ``Simulator``: the arguments a plane's
        ``add`` took beside the id and the time before it took the id alone."""
        return sim._src[fid], sim._dst[fid], sim._size[fid]


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
