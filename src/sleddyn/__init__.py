"""Runner-ice friction modeling and one-track bobsled dynamics.

From raw telemetry to reconstructed runner forces, fitted friction
models, and energy-loss-based driver evaluation, with a forward
simulator providing synthetic ground truth.
"""

__version__ = "0.1.0"
