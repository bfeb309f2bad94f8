"""Structure analysis and numerical verification for Grover-mixer QAOA circuits."""

__version__ = "0.16.0"
