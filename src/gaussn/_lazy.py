"""numpy, imported by each module the first time that module uses it.

A module binds ``np = LazyNumpy(globals())`` in place of ``import numpy as
np``.  The first attribute read through the stand-in imports numpy and
rebinds the module's ``np`` to the real module, so every later ``np.`` in
that module is an ordinary global lookup of numpy itself.  Commands that
need only ``math`` (``criterion``, ``table``, ``verify --suite table1``)
therefore never load numpy.
"""


class LazyNumpy:
    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
