"""Computable Reedy factorizations over finite posets, with the lifting,
pre-morphism and cofinal-tower calculus around them."""

__version__ = "0.1.0"
