"""The frozen benchmark's workloads still run on the library.

``perfbench/`` is not part of this suite. A library or ``jtv`` change that
fails every benchmark op, such as a refusal of a flag that the
``cli-pipeline`` commands give, would otherwise only show as a failed
benchmark run. This runs each workload's ``setup``, two ops and the detailed
``check``, and expects no failure. It also checks that ``oracle-tiny`` draws
the instances of ``families.oracle_tiny``, which the oracle tests use.
"""

import sys
from pathlib import Path

import pytest

import families

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


@pytest.mark.parametrize("seed", [3, 304])
def test_oracle_tiny_draws_the_family(seed, tmp_path):
    # the oracle tests take their instances at the size limit from
    # families.oracle_tiny; they must be the benchmark's, bit for bit
    drawn = OracleTiny().setup(seed, tmp_path)["instances"]
    family = list(families.oracle_tiny(seed, OracleTiny.pool))
    assert len(drawn) == len(family)
    for (support, uj), inst in zip(drawn, family):
        assert support == inst.support
        assert (uj.dtype, uj.shape, uj.tobytes()) == (inst.uj.dtype, inst.uj.shape,
                                                      inst.uj.tobytes())
