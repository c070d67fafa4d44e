"""A task function for home-process tests that imports nothing from
``repro``: what it sees in ``sys.modules`` is what the home loaded."""

import sys


def loaded(module: str) -> bool:
    return module in sys.modules
