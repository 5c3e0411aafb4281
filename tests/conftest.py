import pytest

from qschub.ideals import IdealLab


@pytest.fixture
def built_labs(monkeypatch):
    """The list of every IdealLab constructed while the test runs."""
    built = []
    init = IdealLab.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IdealLab, "__init__", counted)
    return built
