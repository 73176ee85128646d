"""framecert: numerical certification of phase retrievability and
stability for finite complex frames.

The package re-exports the public names of its modules; each module's
``__all__`` is the one list of them.  Names load on first use: ``import
framecert`` imports no module, and the first lookup of a name imports the
module whose ``__all__`` lists it, with the modules listed before it in
``_MODULES``, and keeps the object in the package namespace, so later
lookups do not come back here.
"""

from importlib import import_module as _import_module

from ._version import __version__

# The modules whose ``__all__`` the package re-exports, in the order of
# ``__all__``.  Each comes after the modules it imports, so the lookup
# loads little beyond what the name's module loads anyway, and a name from
# ``errors`` or ``bounds`` loads no numpy.  ``cli`` exports no name.
_MODULES = ("errors", "bounds", "core", "frameio", "constructions", "lifted", "certify",
            "stability")


def _module(name: str):
    return _import_module(f"{__name__}.{name}")


def _find(name: str):
    for module_name in _MODULES:
        module = _module(module_name)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return _module(name)
    if name == "__all__":
        value = ["__version__"] + [n for m in _MODULES for n in _module(m).__all__]
    else:
        value = _find(name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
