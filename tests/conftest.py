"""Helpers shared by the test modules."""


def counted(monkeypatch, module, name):
    """Wrap `module.name` for the test and return the list of argument tuples
    it is called with, one per call.  The wrapper calls the attribute it
    replaces, so a stand-in set before it is counted too."""
    real = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls
