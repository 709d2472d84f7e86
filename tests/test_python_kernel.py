"""The tests that run the culture model or the CVM, again on the Python kernel.

In their own modules they run on the kernel `run_model` picks: the compiled
loop wherever it builds. Here the loader reports no build, so the same tests
hold the Python kernel, the compiled loop's oracle and fallback, to the same
laws. Collected under this module, the tests keep their ids in their own.
Left out: tests that touch no kernel, voter-only tests (the voter model
always runs in Python) and the event-table tests that already pin the
Python kernel.
"""
import pytest

from axsim import engine
from test_acceptance import (  # noqa: F401
    test_criterion_02_density_bound_monte_carlo,
    test_criterion_03_domains_equal_w0_plus_1,
    test_criterion_04_urn_coupling_pathwise,
    test_criterion_06_delta_w_law,
    test_criterion_09_lineage_ordering,
    test_criterion_10_clustering_proxy,
    theorem2_runs,
)
from test_engine import (  # noqa: F401
    TestCvmRun,
    TestExactCvmLawAtTime,
    TestExactCvmOracle,
    TestExactKernelOracle,
    TestExactLawAtTime,
    TestRunModel,
    TestSeedingAndEvents,
)
from test_events import TestHandBuiltArrowLogs  # noqa: F401
from test_urn import TestCoupledInvariants  # noqa: F401


@pytest.fixture(scope="module", autouse=True)
def python_kernel():
    """Module-scoped, so module-scoped fixtures such as `theorem2_runs` see it too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_kernel_lib", lambda: None)
        yield
