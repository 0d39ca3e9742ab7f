import contextlib
import resource
import tracemalloc

import pytest


@pytest.fixture
def refused_before_allocating():
    """A context manager that expects the error `exc` and checks that it came
    before any large allocation.  The address space is capped at its current
    size plus 1 GiB, so an allocation that the refusal failed to prevent
    raises MemoryError instead of being made, and the traced allocations
    must stay below 1 MiB."""

    @contextlib.contextmanager
    def guard(exc):
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = min(c for c in (mapped + 2**30, soft, hard) if c != resource.RLIM_INFINITY)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        tracemalloc.start()
        try:
            with pytest.raises(exc):
                yield
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert peak < 2**20, peak

    return guard
