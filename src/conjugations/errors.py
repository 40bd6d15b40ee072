"""Exception taxonomy shared by the library and the command line front end."""


class InputError(ValueError):
    """Malformed or out-of-contract input: bad shapes, bad files, bad parameters."""


class NotSelfDualError(RuntimeError):
    """The unitary is not equivalent to its adjoint, so no commuting conjugation exists."""


class AbsoluteContinuityError(RuntimeError):
    """The reflected measure is not absolutely continuous: an unpaired non-real atom."""


class MembershipError(RuntimeError):
    """A conjugation does not commute with the given operator."""


class ToleranceError(RuntimeError):
    """A numerical contract was missed at the requested tolerance."""
