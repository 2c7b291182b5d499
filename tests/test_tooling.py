"""The benchmark's tracer must find every function it wraps."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import spans  # noqa: E402


def test_every_traced_name_resolves():
    # Tracer.install replaces each (module, attribute) pair; a name that no
    # longer exists would break a traced run, not this package's own tests
    missing = [(module.__name__, attr) for module, attr, _, _ in spans.targets()
               if not callable(getattr(module, attr, None))]
    assert missing == []
