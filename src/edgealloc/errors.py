"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A config or scenario parameter violates its documented range."""


class InstanceTooLargeError(ValueError):
    """Instance exceeds the size bound of the oracle."""


class InfeasibleTaskError(RuntimeError):
    """No feasible branch was found for some tasks: none meets the task's
    deadline, or the rounded placement breaks a deadline or a station's
    resource budget.

    Carries the offending task ids in ``tasks``.
    """

    def __init__(self, tasks):
        self.tasks = list(tasks)
        super().__init__(f"no feasible branch found for tasks {self.tasks}")
