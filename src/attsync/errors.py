"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a scenario description is structurally invalid.

    Covers bad config files (the message carries the offending field path),
    topology/mode mismatches, and aggregate requests with no incoming edges.
    """


class SimulationDiverged(RuntimeError):
    """Raised when an integrated trajectory leaves the trusted region.

    Carries the index of the first offending spacecraft, the quantity that
    failed ("sigma", "omega" or "theta_hat") and the simulation time at
    which the guard tripped.
    """

    def __init__(self, message, craft_index=None, time=None, quantity=None):
        super().__init__(message)
        self.craft_index = craft_index
        self.time = time
        self.quantity = quantity
