"""Chern-class calculus and the named verification checks."""
