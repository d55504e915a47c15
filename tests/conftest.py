import pytest

from otp_remctl.cli import REGISTRY_ENV


@pytest.fixture(autouse=True)
def _no_registry_from_the_caller(monkeypatch):
    # The CLI reads its registry from this variable when --registry is not
    # given; a test that wants it sets it itself.
    monkeypatch.delenv(REGISTRY_ENV, raising=False)
