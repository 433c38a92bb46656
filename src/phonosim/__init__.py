"""Phonetic-convergence measurement with a Siamese recurrent network."""

__version__ = "0.1.0"
