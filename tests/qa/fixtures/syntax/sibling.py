"""Sibling of the broken fixture: its findings must still surface."""

import random

__all__ = ["roll"]


def roll():
    return random.random()
