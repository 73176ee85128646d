"""framecert: numerical certification of phase retrievability and
stability for finite complex frames.

The package re-exports the public names of its modules; each module's
``__all__`` is the one list of them.
"""

from . import certify, constructions, core, errors, frameio, stability
from ._version import __version__
from .certify import *  # noqa: F401,F403
from .constructions import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .frameio import *  # noqa: F401,F403
from .stability import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (core, certify, stability, constructions, frameio, errors)
    for name in module.__all__
]
