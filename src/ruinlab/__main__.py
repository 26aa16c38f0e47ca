"""``python -m ruinlab``: the ``ruinlab`` command."""
from .cli import entry_point

entry_point()
