"""Exception types shared across the package."""


class PolydotError(Exception):
    """Base class for domain errors raised by this package."""


class NoRealShape(PolydotError):
    """An axis pair (a, c) with a^2 < c admits no real (alpha, beta, gamma)
    decomposition; the on-axis stationary points of that axis are complex."""


class DegenerateCoupling(PolydotError):
    """A coupled block has no isolated off-axis roots to give: its shifted
    coupling matrix is singular, so the roots form a continuum (a = b,
    c = d, u = 2a) or contradict (a = b, u = 2a, c != d), or its entries
    overflow a float."""


class DegenerateWell(PolydotError):
    """A minimum with a numerically vanishing stiffness; harmonic levels are
    undefined there (Mexican-hat style flat direction)."""


class NoMinimum(PolydotError):
    """The potential has no classified minimum to host a ground-state
    candidate."""


class SplitBracket(PolydotError):
    """A bisection bracket contains more than one sign change of the gap;
    the caller should rescan with smaller steps."""


class BudgetExceeded(PolydotError):
    """A requested eigensolver grid exceeds the configured size budget."""
