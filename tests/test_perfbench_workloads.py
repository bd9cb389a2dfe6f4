"""The frozen benchmark's workloads still run on the library.

``perfbench/`` is not part of this suite. A library or ``jtv`` change that
fails every benchmark op, such as a refusal of a flag that the
``cli-pipeline`` commands give, would otherwise only show as a failed
benchmark run. This runs each workload's ``setup``, two ops and the detailed
``check``, and expects no failure.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import CliPipeline, OracleTiny, PlanScale, ReconStream  # noqa: E402

# the two gated workloads at their benchmark sizes, the others at the sizes of
# perfbench's own self-check
WORKLOADS = {
    "cli-pipeline": CliPipeline,
    "oracle-tiny": OracleTiny,
    "plan-scale": lambda: PlanScale(n=8, k_t=3, k_g=3),
    "recon-stream": lambda: ReconStream(n=8, k_t=3, k_g=3, k=5),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ops_pass_their_check(name, tmp_path):
    workload = WORKLOADS[name]()
    assert workload.name == name
    state = workload.setup(3, tmp_path)
    try:
        for i in range(2):
            failure, _ = workload.check(state, i, workload.op(state, i), detail=True)
            assert failure is None, f"{name} op {i}: {failure}"
    finally:
        workload.teardown(state)
