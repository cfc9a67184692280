import pytest

from textjscc import nn


@pytest.fixture(autouse=True)
def no_gradient_jobs_left():
    """Fail a test that ends with gradient jobs still queued: whatever read
    the gradients went round the waiting `Parameter.grad` getter."""
    yield
    left = len(nn._pending)
    if left:
        try:
            nn.wait_for_gradients()
        finally:
            pytest.fail(f"{left} gradient job(s) still queued at the end of the test")
