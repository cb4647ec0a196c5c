import pytest

from landscape_lab import qdyn


@pytest.fixture
def non_unitary_trial_segment(monkeypatch):
    """Make the kernel return one non-unitary segment, the last segment of
    the last grid, in every batched (4-D) call but the first. In an ascent
    or a census the first such call propagates the starts; the later ones
    evaluate line-search chunks."""
    real = qdyn._segment_kernel
    calls = []

    def kernel(H, dt):
        lam, V, U = real(H, dt)
        if U.ndim == 4:
            calls.append(len(U))
            if len(calls) > 1:
                U = U.copy()
                U[-1, -1] *= 1.5
        return lam, V, U

    monkeypatch.setattr(qdyn, "_segment_kernel", kernel)
