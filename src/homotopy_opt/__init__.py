"""Homotopy-continuation SGD: optimizer, problem families, diagnostics and theory calculators."""

__version__ = "0.2.0"
