"""Desk-scale lab for NLI models that predict labels and generate explanations."""

__version__ = "0.1.0"
