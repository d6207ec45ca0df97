"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix dimensions do not conform."""


class NonDifferentiableError(ValueError):
    """The KL objective is not differentiable at the given point.

    Raised when some position has V > 0 but the factor product is 0 there.
    """

    @classmethod
    def at(cls, i, j) -> "NonDifferentiableError":
        """The error for a product that is 0 at (i, j) of V."""
        return cls(f"product is 0 at ({i}, {j}) where the data is positive")


class DegenerateInputError(ValueError):
    """An input is structurally unusable (zero column, zero sum, ...)."""


class MatrixFileError(ValueError):
    """A matrix file failed to parse or validate."""


class SolverInitError(ValueError):
    """The initial point is unusable for the requested solver."""
