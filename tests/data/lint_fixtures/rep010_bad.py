"""REP010 fixture: numpy imported into repro."""

import numpy
from numpy import asarray


def midpoint(positions):
    return float(numpy.mean(asarray(positions)))
