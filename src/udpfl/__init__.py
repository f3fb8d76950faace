"""udpfl: deterministic federated learning with user-level differential privacy.

A numpy/scipy library providing a privacy accountant for the sampled
Gaussian mechanism, from-scratch models with per-sample clipped gradients,
a deterministic federated training loop, adaptive round-budget scheduling,
and an experiment harness with a small CLI.
"""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """Raised with the complete list of config violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n  - " + "\n  - ".join(self.violations))
