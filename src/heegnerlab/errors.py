"""Exception hierarchy shared across the package."""


class HeegnerlabError(Exception):
    """Base class for all domain errors raised by this package."""


class NoSquareRoot(HeegnerlabError):
    pass


class InvalidForm(HeegnerlabError):
    pass


class InvalidDiscriminant(HeegnerlabError):
    pass


class DiscriminantMismatch(HeegnerlabError):
    pass


class NonFundamentalDiscriminant(HeegnerlabError):
    pass


class HeegnerConditionFailed(HeegnerlabError):
    pass


class FiberIncomplete(HeegnerlabError):
    pass


class FieldMismatch(HeegnerlabError):
    pass


class IdentityPoint(HeegnerlabError):
    pass


class PrecisionUnachievable(HeegnerlabError):
    pass


class ConvergenceTooSlow(HeegnerlabError):
    pass


class InvolutionUnresolved(HeegnerlabError):
    pass


class RecognitionFailed(HeegnerlabError):
    pass


class ClusterAmbiguous(HeegnerlabError):
    pass


class ParseError(HeegnerlabError):
    pass


class ValidationError(HeegnerlabError):
    pass
