"""REP010 fixture: spatial maths in plain Python."""


def midpoint(positions):
    return sum(positions) / len(positions)
