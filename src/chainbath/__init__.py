"""chainbath: oscillator-bath-to-chain mapping, exact reduced dynamics, and
certified truncation-error bounds for a harmonic system in a harmonic bath."""

__version__ = "0.1.0"
