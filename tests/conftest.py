import pytest

from helpers import check_library_claims_on_every_call


@pytest.fixture(autouse=True)
def library_claims_on_every_call(monkeypatch):
    check_library_claims_on_every_call(monkeypatch)
